// Tests of the benchmark's own checks: each bad response must be
// rejected, and good ones accepted.  Exits 0 when every case holds.
//
//   perfbench_selftest

#include <algorithm>
#include <iostream>
#include <string>

#include "checks.hpp"
#include "fabp/bio/sequence.hpp"
#include "fabp/core/backtranslate.hpp"
#include "fabp/core/golden.hpp"
#include "inputs.hpp"

namespace {

using fabp::core::Hit;
using fabp::net::AlignResponse;
using namespace perfbench;

int failures = 0;

void expect(bool condition, const std::string& what) {
  std::cout << (condition ? "ok   " : "FAIL ") << what << "\n";
  if (!condition) ++failures;
}

void expect_rejected(const Expectation& e, const AlignResponse& r,
                     const std::string& what) {
  const std::string verdict = check_response(e, r);
  expect(!verdict.empty(), what + (verdict.empty() ? "" : " (" + verdict + ")"));
}

/// A response holding the expectation's planted hits at full score plus
/// `extra` in-range hits at the threshold, sorted.
AlignResponse planted_response(const Expectation& e, std::size_t extra) {
  AlignResponse r;
  for (std::size_t p : e.forward_present)
    r.hits.push_back(Hit{p, static_cast<std::uint32_t>(kQueryElements)});
  for (std::size_t i = 0; i < extra; ++i)
    r.hits.push_back(Hit{101 + 997 * i, e.threshold});
  std::sort(r.hits.begin(), r.hits.end());
  return r;
}

}  // namespace

int main() {
  const Workload wire = make_workload("wire_bound", 11);
  const Reference& ref = wire.references[0];
  const std::string& planted = wire.planted_proteins[ref.plants[0].protein];
  const Expectation e = expect_for(wire, ref, planted, nullptr);
  expect(e.forward_present.size() == 1 && e.reverse_present.size() == 1,
         "a planted query expects one forward and one reverse plant");

  // The planted coding really is in the generated reference, both strands.
  {
    const auto elements = fabp::core::back_translate(
        fabp::bio::ProteinSequence::parse(planted));
    const auto window = [&](std::size_t at) {
      return fabp::bio::NucleotideSequence::parse(
          fabp::bio::SeqKind::Dna, ref.dna.substr(at, kQueryElements));
    };
    expect(fabp::core::golden_score_at(elements, window(e.forward_present[0]),
                                       0) == kQueryElements,
           "forward plant scores 3 x residues under the oracle");
    const auto rc = fabp::bio::NucleotideSequence::parse(
        fabp::bio::SeqKind::Dna,
        reverse_complement(ref.dna.substr(e.reverse_present[0], kQueryElements)));
    expect(fabp::core::golden_score_at(elements, rc, 0) == kQueryElements,
           "reverse plant scores 3 x residues on the reverse strand");
  }

  const AlignResponse good = planted_response(e, 5);
  expect(check_response(e, good).empty(), "a well-formed response passes");

  {
    AlignResponse r = good;
    r.hits.erase(std::find_if(r.hits.begin(), r.hits.end(), [&](const Hit& h) {
      return h.position == e.forward_present[0];
    }));
    expect_rejected(e, r, "planted hit removed");
  }
  {
    AlignResponse r = good;
    r.hits.front().score = e.threshold - 1;
    expect_rejected(e, r, "one hit below threshold");
  }
  {
    AlignResponse r = good;
    std::swap(r.hits[1], r.hits[2]);
    expect_rejected(e, r, "hits out of order");
  }
  {
    AlignResponse r = good;
    r.hits.push_back(r.hits.back());
    expect_rejected(e, r, "a duplicated hit");
  }
  {
    AlignResponse r = good;
    r.hits.back().score = kQueryElements + 1;
    expect_rejected(e, r, "score above the query length");
  }
  {
    AlignResponse r = good;
    r.hits.push_back(Hit{served_size(ref) - kQueryElements + 1, e.threshold});
    expect_rejected(e, r, "hit position past the reference end");
  }
  {
    AlignResponse r = good;
    r.hits.push_back(Hit{e.reverse_present[0], kQueryElements});
    std::sort(r.hits.begin(), r.hits.end());
    expect_rejected(e, r, "reverse plant reported on the forward strand");
  }
  {
    AlignResponse r = good;
    r.reverse_hits.push_back(Hit{e.reverse_present[0] + 1, kQueryElements});
    expect_rejected(e, r, "reverse list without the reverse plant");
  }
  {
    AlignResponse r = good;
    r.status = 9;
    r.error = "refused";
    expect_rejected(e, r, "an error status");
  }

  // Swapped database: the two generations' files plant the same proteins
  // at different offsets.
  const Workload swap = make_workload("tenant_swap", 11);
  const Reference& a = swap.references[0];
  const Reference& b = swap.alternates[0];
  const std::string& hot = swap.planted_proteins[a.plants[0].protein];
  const Expectation ea = expect_for(swap, a, hot, &b);
  const Expectation eb = expect_for(swap, b, hot, &a);
  expect(ea.forward_present != eb.forward_present,
         "the two generations plant at different offsets");
  expect(check_response(ea, planted_response(ea, 3)).empty(),
         "generation A's hits pass against file A");
  expect_rejected(ea, planted_response(eb, 3), "hits from the wrong generation");
  {
    AlignResponse r = planted_response(ea, 3);
    for (std::size_t p : eb.forward_present)
      r.hits.push_back(Hit{p, kQueryElements});
    std::sort(r.hits.begin(), r.hits.end());
    expect_rejected(ea, r, "hits of both generations mixed");
  }

  // Oracle comparison over a slice.
  {
    const std::size_t begin = e.forward_present[0] > 3000
                                  ? e.forward_present[0] - 3000
                                  : 0;
    const std::size_t length = 8192;
    const auto elements = fabp::core::back_translate(
        fabp::bio::ProteinSequence::parse(planted));
    AlignResponse r;
    r.hits = fabp::core::golden_hits(
        elements,
        fabp::bio::NucleotideSequence::parse(fabp::bio::SeqKind::Dna,
                                             ref.dna.substr(begin, length)),
        wire.threshold);
    for (Hit& h : r.hits) h.position += begin;
    expect(r.hits.size() > 1, "the oracle slice holds several hits");
    expect(oracle_compare(planted, ref.dna, wire.threshold, r, begin, length)
               .empty(),
           "oracle agrees with its own hit list");
    AlignResponse missing = r;
    missing.hits.erase(missing.hits.begin() + 1);
    expect(!oracle_compare(planted, ref.dna, wire.threshold, missing, begin,
                           length)
                .empty(),
           "oracle rejects a list missing one hit");
    AlignResponse moved = r;
    moved.hits.back().position += 1;
    expect(!oracle_compare(planted, ref.dna, wire.threshold, moved, begin,
                           length)
                .empty(),
           "oracle rejects a shifted hit");
  }

  // Same seed, same inputs; another seed, other inputs.
  expect(make_workload("wire_bound", 11).references[0].dna == ref.dna &&
             request_protein(wire, 0, 5) ==
                 request_protein(make_workload("wire_bound", 11), 0, 5),
         "inputs repeat for a seed");
  expect(make_workload("wire_bound", 12).references[0].dna != ref.dna,
         "inputs change with the seed");

  std::cout << (failures == 0 ? "all checks held\n" : "checks FAILED\n");
  return failures == 0 ? 0 : 1;
}
