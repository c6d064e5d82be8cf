#pragma once
// Correctness checks applied to every align response, plus the sampled
// comparison against the scalar behavioural oracle (core::golden_hits).
// None of them compares against earlier output of the server: expected
// hits come from the planted codings and from the oracle.

#include <cstdint>
#include <string>
#include <vector>

#include "fabp/net/wire.hpp"
#include "inputs.hpp"

namespace perfbench {

/// What one align response must satisfy.
struct Expectation {
  std::uint32_t threshold = 0;
  std::size_t reference_size = 0;
  /// Must appear in `hits` at the full score (3 x residues).
  std::vector<std::size_t> forward_present;
  /// Must appear in `reverse_hits` at the full score, when the server
  /// reports a reverse list (it searches the forward strand by default).
  std::vector<std::size_t> reverse_present;
  /// Must not appear at the full score: the reverse plants of this query
  /// on the forward list (strand confusion), and the plants of the other
  /// generation of a swapped database (generation confusion).
  std::vector<std::size_t> forward_absent;
  std::vector<std::size_t> reverse_absent;
};

/// Elements the server holds for `reference`: `--db` and SwapDatabase
/// load FASTA through bio::ReferenceDatabase, which appends
/// kGuardElements 'A' guard bases after the record, and the server scans
/// them too.
std::size_t served_size(const Reference& reference);

/// Expectation of `protein` against `reference`; `other` is the other
/// generation's file of a swapped database (nullptr when none).
Expectation expect_for(const Workload& workload, const Reference& reference,
                       const std::string& protein, const Reference* other);

/// Empty when `response` passes every check; otherwise what failed.
/// Invariants on every hit: threshold <= score <= kQueryElements,
/// position + query elements <= reference size, positions strictly
/// increasing within each list.
std::string check_response(const Expectation& expect,
                           const fabp::net::AlignResponse& response);

/// Compares the response's hits inside [begin, begin + length) of the
/// reference with core::golden_hits over that slice (both strands when
/// the response carries a reverse list).  Empty when they agree.
std::string oracle_compare(const std::string& protein, const std::string& dna,
                           std::uint32_t threshold,
                           const fabp::net::AlignResponse& response,
                           std::size_t begin, std::size_t length);

}  // namespace perfbench
