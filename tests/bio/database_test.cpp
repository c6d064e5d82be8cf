#include "fabp/bio/database.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "fabp/bio/generate.hpp"
#include "fabp/util/rng.hpp"

namespace fabp::bio {
namespace {

TEST(ReferenceDatabase, EmptyDatabase) {
  ReferenceDatabase db;
  EXPECT_EQ(db.record_count(), 0u);
  EXPECT_EQ(db.total_bases(), 0u);
  EXPECT_FALSE(db.locate(0).has_value());
}

TEST(ReferenceDatabase, SingleRecordRoundTrip) {
  util::Xoshiro256 rng{701};
  const NucleotideSequence seq = random_dna(500, rng);
  ReferenceDatabase db;
  const std::size_t idx = db.add("chr1", seq);
  EXPECT_EQ(idx, 0u);
  EXPECT_EQ(db.record_count(), 1u);
  EXPECT_EQ(db.name(0), "chr1");
  EXPECT_EQ(db.record_length(0), 500u);
  EXPECT_EQ(db.total_bases(), 500u);
  // Packed store holds the record plus the guard.
  EXPECT_EQ(db.packed().size(), 500u + ReferenceDatabase::kGuardElements);
  for (std::size_t i = 0; i < 500; ++i)
    EXPECT_EQ(db.packed().get(i), seq[i]);
}

TEST(ReferenceDatabase, ReadReferenceKeepsInnerGuardsOnly) {
  // Two FASTA records: the guard between them stays, the trailing one goes.
  std::istringstream fasta{">a\nACGT\n>b\nGGCC\n"};
  const PackedNucleotides packed = read_reference(fasta);
  ASSERT_EQ(packed.size(), 8u + ReferenceDatabase::kGuardElements);
  EXPECT_EQ(packed.get(0), Nucleotide::A);
  EXPECT_EQ(packed.get(4), Nucleotide::A);  // guard
  EXPECT_EQ(packed.get(4 + ReferenceDatabase::kGuardElements), Nucleotide::G);
  EXPECT_EQ(packed.get(packed.size() - 1), Nucleotide::C);

  // Raw ACGT text has no records and no guard.
  std::istringstream raw{"ACG\nT \n"};
  EXPECT_EQ(read_reference(raw).size(), 4u);
}

// The packing loader against the record-building path it replaces: the
// concatenated store of ReferenceDatabase minus its trailing guard for
// FASTA, NucleotideSequence::parse for raw text, and the same exception
// type wherever either rejects a letter.
PackedNucleotides database_reference(const std::string& text) {
  std::istringstream in{text};
  const ReferenceDatabase db = ReferenceDatabase::from_fasta(read_fasta(in));
  return db.packed().slice(
      0, db.packed().size() - ReferenceDatabase::kGuardElements);
}

TEST(ReferenceDatabase, ReadReferenceMatchesDatabasePacking) {
  util::Xoshiro256 rng{705};
  const std::string long_record = random_dna(5'000, rng).to_string();
  const std::vector<std::string> inputs{
      ">a\nACGT\n>b desc\nGGCC\n",
      ">multi\n" + long_record.substr(0, 70) + "\n" +
          long_record.substr(70) + "\n>second\n" + long_record + "\n",
      ">crlf\r\nACGT\r\nTTGA\r\n>b\r\nCC\r\n",
      ">blank\n\nAC GT\n\n\n>empty\n>last\nacgu\tT\n",
      ">no-newline\nACG",
  };
  for (const std::string& text : inputs) {
    std::istringstream in{text};
    EXPECT_EQ(read_reference(in), database_reference(text)) << text;
  }

  for (const std::string raw : {"ACG\nT \n", "acgu\r\nTT", "", " \n"}) {
    std::istringstream in{raw};
    EXPECT_EQ(read_reference(in),
              PackedNucleotides{NucleotideSequence::parse(SeqKind::Dna, raw)})
        << raw;
  }

  for (const std::string bad :
       {">a\nACGN\n", ">a\nACGT\n>b\nAC-GT\n", " >a\nACGT\n", "ACGX"}) {
    std::istringstream in{bad};
    EXPECT_THROW(read_reference(in), std::invalid_argument) << bad;
    if (bad.front() == '>') {
      EXPECT_THROW(database_reference(bad), std::invalid_argument) << bad;
    } else {
      EXPECT_THROW(NucleotideSequence::parse(SeqKind::Dna, bad),
                   std::invalid_argument)
          << bad;
    }
  }
}

TEST(ReferenceDatabase, LocateMapsGlobalToRecord) {
  util::Xoshiro256 rng{703};
  ReferenceDatabase db;
  db.add("a", random_dna(100, rng));
  db.add("b", random_dna(200, rng));

  const auto a0 = db.locate(0);
  ASSERT_TRUE(a0);
  EXPECT_EQ(a0->record, 0u);
  EXPECT_EQ(a0->offset, 0u);

  const auto a99 = db.locate(99);
  ASSERT_TRUE(a99);
  EXPECT_EQ(a99->record, 0u);
  EXPECT_EQ(a99->offset, 99u);

  // Inside the guard between a and b: no record.
  EXPECT_FALSE(db.locate(100).has_value());
  EXPECT_FALSE(
      db.locate(100 + ReferenceDatabase::kGuardElements - 1).has_value());

  const std::size_t b_begin = 100 + ReferenceDatabase::kGuardElements;
  const auto b0 = db.locate(b_begin);
  ASSERT_TRUE(b0);
  EXPECT_EQ(b0->record, 1u);
  EXPECT_EQ(b0->offset, 0u);
  const auto b_last = db.locate(b_begin + 199);
  ASSERT_TRUE(b_last);
  EXPECT_EQ(b_last->offset, 199u);
  EXPECT_FALSE(db.locate(b_begin + 200).has_value());
}

TEST(ReferenceDatabase, WindowWithinRecord) {
  util::Xoshiro256 rng{709};
  ReferenceDatabase db;
  db.add("a", random_dna(100, rng));
  db.add("b", random_dna(100, rng));
  EXPECT_TRUE(db.window_within_record(0, 100));
  EXPECT_FALSE(db.window_within_record(1, 100));   // runs past record end
  EXPECT_FALSE(db.window_within_record(100, 10));  // starts in the guard
  EXPECT_FALSE(db.window_within_record(0, 0));
  const std::size_t b_begin = 100 + ReferenceDatabase::kGuardElements;
  EXPECT_TRUE(db.window_within_record(b_begin + 50, 50));
}

TEST(ReferenceDatabase, FromFasta) {
  const std::vector<FastaRecord> records{
      FastaRecord{"r1", "", "ACGTACGT"},
      FastaRecord{"r2", "desc", "GGGCCC"},
  };
  const ReferenceDatabase db = ReferenceDatabase::from_fasta(records);
  EXPECT_EQ(db.record_count(), 2u);
  EXPECT_EQ(db.name(1), "r2");
  EXPECT_EQ(db.record_length(0), 8u);
  EXPECT_EQ(db.total_bases(), 14u);
}

TEST(ReferenceDatabase, FromFastaRejectsNonNucleotide) {
  EXPECT_THROW(
      ReferenceDatabase::from_fasta({FastaRecord{"p", "", "MKWV"}}),
      std::invalid_argument);
}

TEST(ReferenceDatabase, FromFastaLenientHandlesNs) {
  // Real NCBI nt records contain N runs; lenient mode packs them and
  // reports the substitution count.
  const ReferenceDatabase db = ReferenceDatabase::from_fasta(
      {FastaRecord{"contig", "", "ACGTNNNNACGT"}}, /*lenient=*/true);
  EXPECT_EQ(db.record_length(0), 12u);
  EXPECT_EQ(db.ambiguous_bases(), 4u);
  // Ns decode as A (the documented first-compatible substitution).
  EXPECT_EQ(db.packed().get(4), Nucleotide::A);
}

TEST(ReferenceDatabase, GuardsDecodeAsA) {
  util::Xoshiro256 rng{719};
  ReferenceDatabase db;
  db.add("a", random_dna(10, rng));
  for (std::size_t i = 10; i < 10 + ReferenceDatabase::kGuardElements; ++i)
    EXPECT_EQ(db.packed().get(i), Nucleotide::A);
}

TEST(ReferenceDatabase, SaveLoadRoundTrip) {
  util::Xoshiro256 rng{733};
  ReferenceDatabase db;
  db.add("alpha", random_dna(300, rng));
  db.add("beta with spaces", random_dna(450, rng));
  db.add("", random_dna(1, rng));  // empty name, tiny record

  std::stringstream buffer;
  db.save(buffer);
  const ReferenceDatabase loaded = ReferenceDatabase::load(buffer);

  EXPECT_EQ(loaded.record_count(), db.record_count());
  EXPECT_EQ(loaded.total_bases(), db.total_bases());
  for (std::size_t r = 0; r < db.record_count(); ++r) {
    EXPECT_EQ(loaded.name(r), db.name(r));
    EXPECT_EQ(loaded.record_length(r), db.record_length(r));
  }
  EXPECT_EQ(loaded.packed(), db.packed());
}

TEST(ReferenceDatabase, SaveLoadFile) {
  util::Xoshiro256 rng{739};
  ReferenceDatabase db;
  db.add("chr", random_dna(1000, rng));
  const std::string path = testing::TempDir() + "/fabp_db_test.bin";
  db.save_file(path);
  const ReferenceDatabase loaded = ReferenceDatabase::load_file(path);
  EXPECT_EQ(loaded.packed(), db.packed());
  std::remove(path.c_str());
}

TEST(ReferenceDatabase, LoadRejectsGarbage) {
  std::stringstream bad{"not a database"};
  EXPECT_THROW(ReferenceDatabase::load(bad), std::runtime_error);
  std::stringstream truncated{std::string{"FABPDB1\n"}};
  EXPECT_THROW(ReferenceDatabase::load(truncated), std::runtime_error);
}

namespace {
// A serialized single-record database for the malformed-stream pack.
std::string serialized_db() {
  util::Xoshiro256 rng{751};
  ReferenceDatabase db;
  db.add("contig", random_dna(200, rng));
  std::stringstream buffer;
  db.save(buffer);
  return buffer.str();
}

void expect_load_error(const std::string& blob, const char* needle) {
  std::stringstream in{blob};
  try {
    ReferenceDatabase::load(in);
    FAIL() << "expected load to reject: " << needle;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find(needle), std::string::npos)
        << "got: " << e.what();
  }
}
}  // namespace

TEST(ReferenceDatabase, LoadRejectsBadMagicPreciseMessage) {
  std::string blob = serialized_db();
  blob[0] ^= 0x20;  // corrupt the magic
  expect_load_error(blob, "bad magic");
}

TEST(ReferenceDatabase, LoadRejectsTruncationAtEveryPrefix) {
  // Every proper prefix beyond the magic must fail as a truncated stream
  // (never crash, never return a half-parsed database).  Step through a
  // spread of cut points including mid-word positions.
  const std::string blob = serialized_db();
  for (std::size_t cut = 8; cut < blob.size(); cut += 7) {
    std::stringstream in{blob.substr(0, cut)};
    EXPECT_THROW(ReferenceDatabase::load(in), std::runtime_error)
        << "cut=" << cut;
  }
}

TEST(ReferenceDatabase, LoadRejectsImplausibleNameLength) {
  // Patch the record-name length field (right after magic + record count)
  // to something absurd, as a fuzzer or bit rot would.
  std::string blob = serialized_db();
  const std::size_t name_len_at = 8 + 8;  // magic, n_records
  for (std::size_t b = 0; b < 8; ++b)
    blob[name_len_at + b] = static_cast<char>(0xFF);
  expect_load_error(blob, "implausible name length");
}

TEST(ReferenceDatabase, LoadRejectsOutOfBoundsRecord) {
  // Grow the record's length field so it runs past the packed store.
  std::string blob = serialized_db();
  const std::size_t length_at = 8 + 8 + 8 + 6 + 8;  // ... name, begin
  blob[length_at] = static_cast<char>(0xFF);
  blob[length_at + 1] = static_cast<char>(0xFF);
  expect_load_error(blob, "record out of bounds");
}

TEST(ReferenceDatabase, LoadMissingFileThrows) {
  EXPECT_THROW(ReferenceDatabase::load_file("/nonexistent/db.bin"),
               std::runtime_error);
}

TEST(ReferenceDatabase, ConcatenatedMatchesPacked) {
  util::Xoshiro256 rng{727};
  ReferenceDatabase db;
  db.add("a", random_dna(77, rng));
  db.add("b", random_dna(33, rng));
  const NucleotideSequence cat = db.concatenated();
  EXPECT_EQ(cat.size(), db.packed().size());
  for (std::size_t i = 0; i < cat.size(); ++i)
    EXPECT_EQ(cat[i], db.packed().get(i));
}

}  // namespace
}  // namespace fabp::bio
