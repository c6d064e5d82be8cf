#pragma once
// Multi-record reference database — the shape of the paper's workload
// (NCBI nt is millions of records, not one sequence).
//
// Records are concatenated into a single 2-bit packed store, separated by
// `kGuardElements` guard bases so no alignment window can span two
// records undetected; a sorted boundary table maps global element
// positions back to (record, local offset).  The FabP accelerator streams
// the concatenated store exactly as it would stream one long sequence.

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "fabp/bio/fasta.hpp"
#include "fabp/bio/packed.hpp"
#include "fabp/bio/sequence.hpp"

namespace fabp::bio {

class ReferenceDatabase {
 public:
  /// Guard bases inserted between records (and after the last one) so a
  /// query of up to kGuardElements elements cannot bridge records with a
  /// full-score match.  Guards decode as 'A'.
  static constexpr std::size_t kGuardElements = 768;  // 256 aa query max

  ReferenceDatabase() = default;

  /// Appends a record; returns its index.
  std::size_t add(std::string name, const NucleotideSequence& sequence);

  /// Builds from FASTA records (nucleotide alphabet required; throws
  /// std::invalid_argument on other letters).  With `lenient`, IUPAC
  /// ambiguity codes are substituted (NucleotideSequence::parse_lenient) —
  /// note that many amino-acid letters are *also* IUPAC nucleotide codes,
  /// so lenient mode happily packs a protein FASTA; keep it off unless the
  /// input is known nucleotide data.
  static ReferenceDatabase from_fasta(const std::vector<FastaRecord>& records,
                                      bool lenient = false);

  /// IUPAC substitutions performed while building (lenient mode only).
  std::size_t ambiguous_bases() const noexcept { return ambiguous_; }

  std::size_t record_count() const noexcept { return records_.size(); }
  const std::string& name(std::size_t record) const {
    return records_.at(record).name;
  }
  std::size_t record_length(std::size_t record) const {
    return records_.at(record).length;
  }
  /// Total bases across records (without guards).
  std::size_t total_bases() const noexcept { return total_bases_; }

  /// The concatenated 2-bit packed store the accelerator streams.
  const PackedNucleotides& packed() const noexcept { return packed_; }

  /// Concatenated store as a sequence (tests / software baselines).
  NucleotideSequence concatenated(SeqKind kind = SeqKind::Dna) const {
    return packed_.unpack(kind);
  }

  /// Binary serialization (little-endian, versioned header "FABPDB1\n"):
  /// the packed store is written verbatim, so save/load of a multi-GB
  /// database costs one sequential pass — the same property the paper
  /// exploits for DRAM streaming.
  void save(std::ostream& out) const;
  void save_file(const std::string& path) const;
  static ReferenceDatabase load(std::istream& in);
  static ReferenceDatabase load_file(const std::string& path);

  struct Location {
    std::size_t record = 0;
    std::size_t offset = 0;  // element offset within the record
  };

  /// Maps a global element position to its record; nullopt inside guards.
  std::optional<Location> locate(std::size_t global_position) const;

  /// True when an alignment window [pos, pos+len) stays inside one record.
  bool window_within_record(std::size_t pos, std::size_t len) const;

 private:
  struct Record {
    std::string name;
    std::size_t begin = 0;   // global element index of the first base
    std::size_t length = 0;  // bases
  };

  std::vector<Record> records_;
  PackedNucleotides packed_;
  std::size_t total_bases_ = 0;
  std::size_t ambiguous_ = 0;
};

/// Reads a reference to serve from FASTA (leading '>') or raw ACGT text
/// (whitespace tolerated).  FASTA records are concatenated as in
/// ReferenceDatabase, guards between records included, but the guard after
/// the last record is dropped: a one-record FASTA serves exactly its bases.
/// Packs straight from one buffered read (no per-record strings); throws
/// std::invalid_argument on a letter NucleotideSequence::parse rejects.
PackedNucleotides read_reference(std::istream& in);
PackedNucleotides read_reference_file(const std::string& path);

}  // namespace fabp::bio
