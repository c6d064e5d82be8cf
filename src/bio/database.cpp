#include "fabp/bio/database.hpp"

#include <algorithm>
#include <array>
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

namespace {

constexpr std::uint8_t kSkipByte = 4;
constexpr std::uint8_t kBadByte = 5;

/// NucleotideSequence::parse's alphabet as a byte table: the 2-bit code of
/// every letter nucleotide_from_char accepts, kSkipByte for the whitespace
/// parse skips, kBadByte for the letters it rejects.
const std::array<std::uint8_t, 256>& base_codes() {
  static const std::array<std::uint8_t, 256> codes = [] {
    std::array<std::uint8_t, 256> out{};
    for (int c = 0; c < 256; ++c) {
      const auto base = nucleotide_from_char(static_cast<char>(c));
      out[c] = base ? code(*base) : std::isspace(c) ? kSkipByte : kBadByte;
    }
    return out;
  }();
  return codes;
}

}  // namespace

PackedNucleotides read_reference(std::istream& in) {
  // One pass over one buffered read, packing 2-bit codes straight into
  // words: the layout of ReferenceDatabase::from_fasta(read_fasta(in))
  // .packed() without its trailing guard (every header but the first opens
  // a guard of 'A' = code 0 bases), with NucleotideSequence::parse's
  // letters and errors.
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = std::move(buffer).str();
  const bool fasta = !text.empty() && text.front() == '>';
  const std::array<std::uint8_t, 256>& codes = base_codes();
  std::vector<std::uint64_t> words;
  words.reserve(text.size() / kElementsPerWord + 1);
  std::size_t size = 0;
  bool first_record = true;
  for (std::size_t line = 0; line < text.size();) {
    const std::size_t eol = std::min(text.find('\n', line), text.size());
    if (fasta && text[line] == '>') {
      if (!first_record) {
        size += ReferenceDatabase::kGuardElements;
        words.resize((size + kElementsPerWord - 1) / kElementsPerWord);
      }
      first_record = false;
    } else {
      for (std::size_t i = line; i < eol; ++i) {
        const std::uint8_t base = codes[static_cast<unsigned char>(text[i])];
        if (base == kSkipByte) continue;
        if (base == kBadByte)
          throw std::invalid_argument{
              std::string{"invalid nucleotide letter: "} + text[i]};
        if (size % kElementsPerWord == 0) words.push_back(0);
        words.back() |= std::uint64_t{base} << (2 * (size % kElementsPerWord));
        ++size;
      }
    }
    line = eol + 1;
  }
  return PackedNucleotides::from_words(std::move(words), size);
}

PackedNucleotides read_reference_file(const std::string& path) {
  std::ifstream in{path};
  if (!in) throw std::runtime_error{"cannot open reference file: " + path};
  return read_reference(in);
}

}  // namespace fabp::bio
