#include "inputs.hpp"

#include <algorithm>
#include <array>
#include <fstream>
#include <stdexcept>
#include <utility>

namespace perfbench {
namespace {

/// Every generated protein is a shuffle of this residue multiset (all 20
/// residues, the common ones twice or thrice).  Hit counts depend mostly
/// on a query's composition, so a fixed one keeps hits and response bytes
/// per request steady from seed to seed.
constexpr std::string_view kComposition = "AAGGLLLSSVVEEKKTDIRPNQFYM";
static_assert(kComposition.size() == kQueryResidues + 1);

/// Standard genetic code, DNA alphabet, one entry per residue.  Ser keeps
/// its TCN box only: FabP's Ser template (TCD) does not cover AGY.
const std::vector<std::string_view>& codons_of(char residue) {
  static const std::array<std::pair<char, std::vector<std::string_view>>, 20>
      kTable{{
          {'A', {"GCT", "GCC", "GCA", "GCG"}},
          {'C', {"TGT", "TGC"}},
          {'D', {"GAT", "GAC"}},
          {'E', {"GAA", "GAG"}},
          {'F', {"TTT", "TTC"}},
          {'G', {"GGT", "GGC", "GGA", "GGG"}},
          {'H', {"CAT", "CAC"}},
          {'I', {"ATT", "ATC", "ATA"}},
          {'K', {"AAA", "AAG"}},
          {'L', {"CTT", "CTC", "CTA", "CTG", "TTA", "TTG"}},
          {'M', {"ATG"}},
          {'N', {"AAT", "AAC"}},
          {'P', {"CCT", "CCC", "CCA", "CCG"}},
          {'Q', {"CAA", "CAG"}},
          {'R', {"CGT", "CGC", "CGA", "CGG", "AGA", "AGG"}},
          {'S', {"TCT", "TCC", "TCA", "TCG"}},
          {'T', {"ACT", "ACC", "ACA", "ACG"}},
          {'V', {"GTT", "GTC", "GTA", "GTG"}},
          {'W', {"TGG"}},
          {'Y', {"TAT", "TAC"}},
      }};
  for (const auto& [aa, codons] : kTable)
    if (aa == residue) return codons;
  throw std::invalid_argument{std::string{"no codon for residue "} + residue};
}

std::string random_protein(Rng& rng) {
  std::string out{kComposition};
  for (std::size_t i = out.size(); i > 1; --i)
    std::swap(out[i - 1], out[rng.below(i)]);
  out.resize(kQueryResidues);  // drops one residue at random
  return out;
}

std::string random_dna(std::size_t length, Rng& rng) {
  static constexpr char kBases[4] = {'A', 'C', 'G', 'T'};
  std::string out(length, 'A');
  std::uint64_t word = 0;
  for (std::size_t i = 0; i < length; ++i) {
    if (i % 32 == 0) word = rng.next();
    out[i] = kBases[word & 3];
    word >>= 2;
  }
  return out;
}

/// A reference of `length` random bases with one forward coding and one
/// reverse-complement coding of each listed planted protein, at offsets
/// drawn from `rng` in disjoint segments.
Reference make_reference(std::string database, std::size_t length,
                         const std::vector<std::string>& proteins,
                         const std::vector<std::size_t>& planted, Rng& rng) {
  Reference ref;
  ref.database = std::move(database);
  ref.dna = random_dna(length, rng);
  const std::size_t slots = 2 * planted.size();
  const std::size_t segment = length / slots;
  if (segment < 2 * kQueryElements)
    throw std::logic_error{"reference too short for its plants"};
  std::vector<std::size_t> order(slots);
  for (std::size_t i = 0; i < slots; ++i) order[i] = i;
  for (std::size_t i = slots; i > 1; --i)
    std::swap(order[i - 1], order[rng.below(i)]);
  for (std::size_t k = 0; k < planted.size(); ++k) {
    Plant plant;
    plant.protein = planted[k];
    const auto offset = [&](std::size_t slot) {
      return slot * segment + rng.below(segment - kQueryElements);
    };
    plant.forward = offset(order[2 * k]);
    plant.reverse = offset(order[2 * k + 1]);
    const std::string& protein = proteins[plant.protein];
    ref.dna.replace(plant.forward, kQueryElements, code_protein(protein, rng));
    ref.dna.replace(plant.reverse, kQueryElements,
                    reverse_complement(code_protein(protein, rng)));
    ref.plants.push_back(plant);
  }
  return ref;
}

std::vector<std::size_t> range(std::size_t begin, std::size_t end) {
  std::vector<std::size_t> out;
  for (std::size_t i = begin; i < end; ++i) out.push_back(i);
  return out;
}

}  // namespace

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t Rng::below(std::uint64_t bound) {
  // Rejection keeps the draw unbiased for any bound.
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % bound);
  for (;;) {
    const std::uint64_t v = next();
    if (v < limit) return v % bound;
  }
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  Rng rng{a ^ 0x6a09e667f3bcc909ull};
  rng.next();
  Rng r2{rng.next() ^ b};
  Rng r3{r2.next() ^ c};
  return r3.next();
}

std::string code_protein(const std::string& protein, Rng& rng) {
  std::string out;
  out.reserve(3 * protein.size());
  for (char residue : protein) {
    const auto& codons = codons_of(residue);
    out.append(codons[rng.below(codons.size())]);
  }
  return out;
}

std::string reverse_complement(const std::string& dna) {
  std::string out(dna.rbegin(), dna.rend());
  for (char& c : out) {
    switch (c) {
      case 'A': c = 'T'; break;
      case 'C': c = 'G'; break;
      case 'G': c = 'C'; break;
      case 'T': c = 'A'; break;
      default: throw std::invalid_argument{"non-ACGT base"};
    }
  }
  return out;
}

void write_fasta(const std::string& path, const std::string& name,
                 const std::string& dna) {
  std::ofstream out{path, std::ios::binary};
  if (!out) throw std::runtime_error{"cannot write " + path};
  out << '>' << name << '\n';
  for (std::size_t i = 0; i < dna.size(); i += 80)
    out << std::string_view{dna}.substr(i, 80) << '\n';
  if (!out) throw std::runtime_error{"short write to " + path};
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  w.seed = seed;
  Rng rng{mix(seed, 0x1b873593u)};
  const auto planted_set = [&](std::size_t count) {
    for (std::size_t i = 0; i < count; ++i)
      w.planted_proteins.push_back(random_protein(rng));
  };
  if (name == "wire_bound") {
    w.backend = "tiled";
    planted_set(32);
    w.references.push_back(make_reference(
        "main", 256'000, w.planted_proteins, range(0, 32), rng));
    w.clients = {{"main", ""}};
    w.threshold = 36;
    w.warmup_requests = 100;
    w.idle_publishes = 40;
    w.setup_repeats = 7;
  } else if (name == "scan_bound") {
    w.backend = "hwsim";
    planted_set(32);
    w.references.push_back(make_reference(
        "main", 8'000'000, w.planted_proteins, range(0, 32), rng));
    w.clients.assign(2, ClientSpec{"main", ""});
    w.workers = 1;
    w.threshold = 47;
    w.warmup_requests = 10;
    w.idle_publishes = 10;
    w.setup_repeats = 5;
  } else if (name == "tenant_swap") {
    w.backend = "hwsim";
    w.shards = 2;
    w.tenant_flags = {"a=3", "b=1"};
    planted_set(12);  // 0..7 live in `hot`, 8..11 in `cold`
    w.references.push_back(make_reference(
        "hot", 4'000'000, w.planted_proteins, range(0, 8), rng));
    w.references.push_back(make_reference(
        "cold", 1'000'000, w.planted_proteins, range(8, 12), rng));
    w.alternates.push_back(make_reference(
        "hot", 4'000'000, w.planted_proteins, range(0, 8), rng));
    w.swap_database = "hot";
    w.swap_period_s = 0.5;
    w.clients = {{"hot", "a"}, {"hot", "a"}, {"cold", "b"}};
    w.threshold = 47;
    w.query_pool = 32;
    w.warmup_requests = 32;
  } else {
    throw std::invalid_argument{"unknown workload: " + name};
  }
  return w;
}

std::string request_protein(const Workload& workload, std::size_t client,
                            std::size_t index) {
  const std::size_t planted = workload.planted_proteins.size();
  if (workload.query_pool > 0) {
    // Stride 7 is coprime to the pool size, so each client cycles the
    // whole pool; the client offset de-phases the clients.
    const std::size_t slot = (index * 7 + client * 13) % workload.query_pool;
    if (slot < planted) return workload.planted_proteins[slot];
    Rng rng{mix(workload.seed, 0x9001, slot)};
    return random_protein(rng);
  }
  if (index % kPlantedEvery == kPlantedEvery - 1)
    return workload.planted_proteins[(index / kPlantedEvery +
                                      client * 5) %
                                     planted];
  Rng rng{mix(workload.seed, client + 1, index)};
  return random_protein(rng);
}

long planted_index(const Workload& workload, const std::string& protein) {
  for (std::size_t i = 0; i < workload.planted_proteins.size(); ++i)
    if (workload.planted_proteins[i] == protein) return static_cast<long>(i);
  return -1;
}

}  // namespace perfbench
