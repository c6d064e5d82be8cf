#include "checks.hpp"

#include <algorithm>

#include "fabp/bio/database.hpp"
#include "fabp/bio/sequence.hpp"
#include "fabp/core/backtranslate.hpp"
#include "fabp/core/golden.hpp"

namespace perfbench {
namespace {

using fabp::core::Hit;

std::string check_list(const char* name, const std::vector<Hit>& hits,
                       const Expectation& expect) {
  const std::size_t last = expect.reference_size >= kQueryElements
                               ? expect.reference_size - kQueryElements
                               : 0;
  for (std::size_t i = 0; i < hits.size(); ++i) {
    const Hit& h = hits[i];
    const std::string where =
        std::string{name} + " hit " + std::to_string(i) + " at " +
        std::to_string(h.position);
    if (h.score < expect.threshold)
      return where + ": score " + std::to_string(h.score) +
             " below threshold " + std::to_string(expect.threshold);
    if (h.score > kQueryElements)
      return where + ": score " + std::to_string(h.score) +
             " above the query length";
    if (h.position > last) return where + ": position out of range";
    if (i > 0 && hits[i - 1].position >= h.position)
      return where + ": positions not strictly increasing";
  }
  return {};
}

bool has_full_score(const std::vector<Hit>& hits, std::size_t position,
                    std::uint32_t full) {
  const auto it = std::lower_bound(
      hits.begin(), hits.end(), position,
      [](const Hit& h, std::size_t p) { return h.position < p; });
  return it != hits.end() && it->position == position && it->score == full;
}

std::vector<Hit> in_window(const std::vector<Hit>& hits, std::size_t begin,
                           std::size_t end) {
  std::vector<Hit> out;
  for (const Hit& h : hits)
    if (h.position >= begin && h.position < end) out.push_back(h);
  return out;
}

std::string compare_lists(const char* name, const std::vector<Hit>& got,
                          const std::vector<Hit>& want) {
  if (got == want) return {};
  std::size_t i = 0;
  while (i < got.size() && i < want.size() && got[i] == want[i]) ++i;
  std::string out = std::string{name} + ": " + std::to_string(got.size()) +
                    " hits in the slice, oracle has " +
                    std::to_string(want.size());
  if (i < want.size())
    out += "; first oracle hit missing or different at " +
           std::to_string(want[i].position);
  else if (i < got.size())
    out += "; extra hit at " + std::to_string(got[i].position);
  return out;
}

}  // namespace

std::size_t served_size(const Reference& reference) {
  return reference.dna.size() + fabp::bio::ReferenceDatabase::kGuardElements;
}

Expectation expect_for(const Workload& workload, const Reference& reference,
                       const std::string& protein, const Reference* other) {
  Expectation e;
  e.threshold = workload.threshold;
  e.reference_size = served_size(reference);
  const long index = planted_index(workload, protein);
  if (index < 0) return e;
  for (const Plant& p : reference.plants) {
    if (p.protein != static_cast<std::size_t>(index)) continue;
    e.forward_present.push_back(p.forward);
    e.reverse_present.push_back(p.reverse);
    e.forward_absent.push_back(p.reverse);
  }
  if (other != nullptr)
    for (const Plant& p : other->plants) {
      if (p.protein != static_cast<std::size_t>(index)) continue;
      e.forward_absent.push_back(p.forward);
      e.reverse_absent.push_back(p.reverse);
    }
  return e;
}

std::string check_response(const Expectation& expect,
                           const fabp::net::AlignResponse& response) {
  if (!response.ok())
    return "status " + std::to_string(response.status) + ": " + response.error;
  if (std::string bad = check_list("forward", response.hits, expect);
      !bad.empty())
    return bad;
  if (std::string bad = check_list("reverse", response.reverse_hits, expect);
      !bad.empty())
    return bad;
  constexpr auto full = static_cast<std::uint32_t>(kQueryElements);
  for (std::size_t p : expect.forward_present)
    if (!has_full_score(response.hits, p, full))
      return "planted forward hit at " + std::to_string(p) + " missing";
  if (!response.reverse_hits.empty())
    for (std::size_t p : expect.reverse_present)
      if (!has_full_score(response.reverse_hits, p, full))
        return "planted reverse hit at " + std::to_string(p) + " missing";
  for (std::size_t p : expect.forward_absent)
    if (has_full_score(response.hits, p, full))
      return "full-score forward hit at " + std::to_string(p) +
             ", a plant of the other strand or generation";
  for (std::size_t p : expect.reverse_absent)
    if (has_full_score(response.reverse_hits, p, full))
      return "full-score reverse hit at " + std::to_string(p) +
             ", a plant of the other generation";
  return {};
}

std::string oracle_compare(const std::string& protein, const std::string& dna,
                           std::uint32_t threshold,
                           const fabp::net::AlignResponse& response,
                           std::size_t begin, std::size_t length) {
  namespace bio = fabp::bio;
  const auto elements =
      fabp::core::back_translate(bio::ProteinSequence::parse(protein));
  const std::size_t L = elements.size();
  begin = std::min(begin, dna.size() - std::min(dna.size(), length));
  length = std::min(length, dna.size() - begin);
  const std::string slice = dna.substr(begin, length);
  const std::size_t windows = length >= L ? length - L + 1 : 0;

  std::vector<Hit> want = fabp::core::golden_hits(
      elements, bio::NucleotideSequence::parse(bio::SeqKind::Dna, slice),
      threshold);
  for (Hit& h : want) h.position += begin;
  std::string bad = compare_lists(
      "forward", in_window(response.hits, begin, begin + windows), want);
  if (!bad.empty() || response.reverse_hits.empty()) return bad;

  // Reverse hits are reported at the forward offset of the window whose
  // reverse complement matched.
  std::vector<Hit> raw = fabp::core::golden_hits(
      elements,
      bio::NucleotideSequence::parse(bio::SeqKind::Dna,
                                     reverse_complement(slice)),
      threshold);
  std::vector<Hit> want_rev;
  for (const Hit& h : raw)
    want_rev.push_back(Hit{begin + length - h.position - L, h.score});
  std::sort(want_rev.begin(), want_rev.end());
  return compare_lists("reverse",
                       in_window(response.reverse_hits, begin, begin + windows),
                       want_rev);
}

}  // namespace perfbench
