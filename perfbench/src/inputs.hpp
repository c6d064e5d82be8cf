#pragma once
// Workload shapes and seeded input generation.
//
// Everything the server sees is made here from (workload, seed): the
// reference FASTA files passed with `--db`, and the protein of every
// request.  Planted genes are coded with the benchmark's own copy of the
// standard genetic code (Ser only from its UCN box), so the expected full
// score hits do not come from the code under test.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// SplitMix64: small, seedable, and identical on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_{seed} {}
  std::uint64_t next();
  /// Uniform in [0, bound); bound > 0.
  std::uint64_t below(std::uint64_t bound);

 private:
  std::uint64_t state_;
};

/// Mixes several words into one seed.
std::uint64_t mix(std::uint64_t a, std::uint64_t b, std::uint64_t c = 0);

inline constexpr std::size_t kQueryResidues = 24;
inline constexpr std::size_t kQueryElements = 3 * kQueryResidues;
/// Every kPlantedEvery-th request of a client sends a planted query.
inline constexpr std::size_t kPlantedEvery = 8;

/// One planted gene: its protein, and the forward-strand offsets where
/// its coding (forward) and the reverse complement of a coding (reverse)
/// were written into a reference.
struct Plant {
  std::size_t protein = 0;  ///< index into Workload::planted_proteins
  std::size_t forward = 0;
  std::size_t reverse = 0;
};

/// One generated reference file.
struct Reference {
  std::string database;  ///< server-side database name
  std::string dna;       ///< ACGT text
  std::vector<Plant> plants;
};

/// A closed-loop align client: which database and tenant it targets.
struct ClientSpec {
  std::string database;
  std::string tenant;
};

struct Workload {
  std::string name;
  std::uint64_t seed = 0;
  // --- server shape
  std::string backend;     ///< `--backend` operand
  std::size_t shards = 1;  ///< `--shards` operand
  std::size_t workers = 2; ///< engine workers (the CLI's default)
  std::vector<std::string> tenant_flags;  ///< `--tenant` operands
  // --- inputs
  std::vector<std::string> planted_proteins;
  /// references[i] is served as `--db references[i].database=<file>`; a
  /// swapped database lists its alternate generations in `alternates`.
  std::vector<Reference> references;
  /// Files published to `swap_database` in turn while the clients run:
  /// generation 1 is references[0], then alternates[0], references[0],
  /// alternates[0], ...
  std::vector<Reference> alternates;
  std::string swap_database;  ///< references[0]'s database; empty: no swaps
  double swap_period_s = 0.0;
  /// Idle republishes of references[0], half before and half after the
  /// timed phase (when no swaps run under load).
  std::size_t idle_publishes = 0;
  // --- traffic
  std::vector<ClientSpec> clients;
  std::uint32_t threshold = 0;
  /// > 0: requests cycle through a pool of this many queries (the first
  /// planted_proteins.size() of which are the planted ones).
  std::size_t query_pool = 0;
  std::size_t warmup_requests = 0;  ///< per client, untimed
  std::size_t setup_repeats = 3;    ///< server spawns timed for setup_s
};

/// The named workload with inputs made from `seed`; throws on an
/// unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed);

/// The protein request `index` of client `client` sends.
std::string request_protein(const Workload& workload, std::size_t client,
                            std::size_t index);
/// Index into planted_proteins when the protein is a planted one, else -1.
long planted_index(const Workload& workload, const std::string& protein);

/// One coding of `protein` (one-letter codes) from the standard genetic
/// code, codons drawn from `rng`; Ser from TCN only.
std::string code_protein(const std::string& protein, Rng& rng);
std::string reverse_complement(const std::string& dna);

/// Writes `dna` as a one-record FASTA file (80 columns).
void write_fasta(const std::string& path, const std::string& name,
                 const std::string& dna);

}  // namespace perfbench
