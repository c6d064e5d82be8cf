#include "fabp/bio/database.hpp"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace fabp::bio {

namespace {

constexpr char kMagic[8] = {'F', 'A', 'B', 'P', 'D', 'B', '1', '\n'};

void write_u64(std::ostream& out, std::uint64_t value) {
  char bytes[8];
  for (int i = 0; i < 8; ++i)
    bytes[i] = static_cast<char>((value >> (8 * i)) & 0xff);
  out.write(bytes, 8);
}

std::uint64_t read_u64(std::istream& in) {
  char bytes[8];
  in.read(bytes, 8);
  if (!in) throw std::runtime_error{"ReferenceDatabase: truncated stream"};
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i)
    value |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes[i]))
             << (8 * i);
  return value;
}

void write_string(std::ostream& out, const std::string& text) {
  write_u64(out, text.size());
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
}

std::string read_string(std::istream& in) {
  const std::uint64_t size = read_u64(in);
  if (size > (1u << 20))
    throw std::runtime_error{"ReferenceDatabase: implausible name length"};
  std::string text(size, '\0');
  in.read(text.data(), static_cast<std::streamsize>(size));
  if (!in) throw std::runtime_error{"ReferenceDatabase: truncated stream"};
  return text;
}

}  // namespace

std::size_t ReferenceDatabase::add(std::string name,
                                   const NucleotideSequence& sequence) {
  Record record;
  record.name = std::move(name);
  record.begin = packed_.size();
  record.length = sequence.size();
  for (Nucleotide n : sequence) packed_.push_back(n);
  for (std::size_t i = 0; i < kGuardElements; ++i)
    packed_.push_back(Nucleotide::A);
  total_bases_ += sequence.size();
  records_.push_back(std::move(record));
  return records_.size() - 1;
}

ReferenceDatabase ReferenceDatabase::from_fasta(
    const std::vector<FastaRecord>& records, bool lenient) {
  ReferenceDatabase db;
  for (const FastaRecord& record : records) {
    if (lenient) {
      auto parsed =
          NucleotideSequence::parse_lenient(SeqKind::Dna, record.sequence);
      db.ambiguous_ += parsed.ambiguous;
      db.add(record.id, parsed.sequence);
    } else {
      db.add(record.id,
             NucleotideSequence::parse(SeqKind::Dna, record.sequence));
    }
  }
  return db;
}

std::optional<ReferenceDatabase::Location> ReferenceDatabase::locate(
    std::size_t global_position) const {
  // Binary search the last record with begin <= position.
  const auto it = std::upper_bound(
      records_.begin(), records_.end(), global_position,
      [](std::size_t pos, const Record& r) { return pos < r.begin; });
  if (it == records_.begin()) return std::nullopt;
  const Record& record = *(it - 1);
  const std::size_t offset = global_position - record.begin;
  if (offset >= record.length) return std::nullopt;  // inside the guard
  return Location{static_cast<std::size_t>(&record - records_.data()),
                  offset};
}

bool ReferenceDatabase::window_within_record(std::size_t pos,
                                             std::size_t len) const {
  if (len == 0) return false;
  const auto begin = locate(pos);
  if (!begin) return false;
  const Record& record = records_[begin->record];
  return begin->offset + len <= record.length;
}

void ReferenceDatabase::save(std::ostream& out) const {
  out.write(kMagic, sizeof kMagic);
  write_u64(out, records_.size());
  for (const Record& record : records_) {
    write_string(out, record.name);
    write_u64(out, record.begin);
    write_u64(out, record.length);
  }
  write_u64(out, packed_.size());
  const auto words = packed_.words();
  for (std::uint64_t word : words) write_u64(out, word);
  if (!out) throw std::runtime_error{"ReferenceDatabase: write failed"};
}

void ReferenceDatabase::save_file(const std::string& path) const {
  std::ofstream out{path, std::ios::binary};
  if (!out) throw std::runtime_error{"cannot write " + path};
  save(out);
}

ReferenceDatabase ReferenceDatabase::load(std::istream& in) {
  char magic[8];
  in.read(magic, sizeof magic);
  if (!in || std::memcmp(magic, kMagic, sizeof kMagic) != 0)
    throw std::runtime_error{"ReferenceDatabase: bad magic"};

  ReferenceDatabase db;
  const std::uint64_t n_records = read_u64(in);
  db.records_.reserve(n_records);
  for (std::uint64_t r = 0; r < n_records; ++r) {
    Record record;
    record.name = read_string(in);
    record.begin = read_u64(in);
    record.length = read_u64(in);
    db.total_bases_ += record.length;
    db.records_.push_back(std::move(record));
  }
  const std::uint64_t elements = read_u64(in);
  PackedNucleotides packed;
  // Rebuild the packed store word-by-word.
  const std::uint64_t n_words = (elements + kElementsPerWord - 1) /
                                kElementsPerWord;
  std::vector<Nucleotide> bases;
  bases.reserve(elements);
  for (std::uint64_t w = 0; w < n_words; ++w) {
    const std::uint64_t word = read_u64(in);
    for (std::size_t k = 0; k < kElementsPerWord; ++k) {
      const std::uint64_t i = w * kElementsPerWord + k;
      if (i >= elements) break;
      bases.push_back(nucleotide_from_code(
          static_cast<std::uint8_t>((word >> (2 * k)) & 3)));
    }
  }
  db.packed_ = PackedNucleotides{bases};

  // Structural validation.
  for (const Record& record : db.records_)
    if (record.begin + record.length > db.packed_.size())
      throw std::runtime_error{"ReferenceDatabase: record out of bounds"};
  return db;
}

ReferenceDatabase ReferenceDatabase::load_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) throw std::runtime_error{"cannot open " + path};
  return load(in);
}

PackedNucleotides read_reference(std::istream& in) {
  if (in.peek() == '>') {
    const ReferenceDatabase db = ReferenceDatabase::from_fasta(read_fasta(in));
    const PackedNucleotides& packed = db.packed();
    if (db.record_count() == 0) return packed;
    return packed.slice(0, packed.size() - ReferenceDatabase::kGuardElements);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string text = buffer.str();
  std::erase_if(text, [](unsigned char ch) { return std::isspace(ch); });
  return PackedNucleotides{NucleotideSequence::parse(SeqKind::Dna, text)};
}

PackedNucleotides read_reference_file(const std::string& path) {
  std::ifstream in{path};
  if (!in) throw std::runtime_error{"cannot open reference file: " + path};
  return read_reference(in);
}

}  // namespace fabp::bio
