#include "fabp/net/wire.hpp"

#include <cstring>

#include "fabp/core/error.hpp"
#include "fabp/util/crc32.hpp"

namespace fabp::net {
namespace {

// Little-endian store/load/append helpers.  The shifts are byte-order
// independent; the compiler folds each into one move on little-endian
// hosts.  The reader tracks a cursor and fails soft past the end.

/// Wire bytes per hit: u64 position + u32 score.
constexpr std::size_t kHitBytes = 12;

void store_u32(char* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

void store_u64(char* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

std::uint32_t load_u32(const char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(p[i]))
         << (8 * i);
  return v;
}

std::uint64_t load_u64(const char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(p[i]))
         << (8 * i);
  return v;
}

void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

void put_u32(std::string& out, std::uint32_t v) {
  char bytes[4];
  store_u32(bytes, v);
  out.append(bytes, sizeof bytes);
}

void put_u64(std::string& out, std::uint64_t v) {
  char bytes[8];
  store_u64(bytes, v);
  out.append(bytes, sizeof bytes);
}

void put_f64(std::string& out, double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  put_u64(out, bits);
}

void put_string(std::string& out, std::string_view s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

void put_hits(std::string& out, const std::vector<core::Hit>& hits) {
  put_u32(out, static_cast<std::uint32_t>(hits.size()));
  const std::size_t at = out.size();
  out.resize(at + kHitBytes * hits.size());
  char* p = out.data() + at;
  for (const core::Hit& h : hits) {
    store_u64(p, h.position);
    store_u32(p + 8, h.score);
    p += kHitBytes;
  }
}

class Reader {
 public:
  explicit Reader(std::string_view data) : data_{data} {}

  bool u8(std::uint8_t& v) {
    if (data_.size() - pos_ < 1) return fail();
    v = static_cast<std::uint8_t>(data_[pos_++]);
    return true;
  }

  bool u32(std::uint32_t& v) {
    if (data_.size() - pos_ < 4) return fail();
    v = load_u32(data_.data() + pos_);
    pos_ += 4;
    return true;
  }

  bool u64(std::uint64_t& v) {
    if (data_.size() - pos_ < 8) return fail();
    v = load_u64(data_.data() + pos_);
    pos_ += 8;
    return true;
  }

  bool f64(double& v) {
    std::uint64_t bits = 0;
    if (!u64(bits)) return false;
    std::memcpy(&v, &bits, sizeof v);
    return true;
  }

  bool string(std::string& v) {
    std::uint32_t n = 0;
    if (!u32(n) || data_.size() - pos_ < n) return fail();
    v.assign(data_.substr(pos_, n));
    pos_ += n;
    return true;
  }

  bool hits(std::vector<core::Hit>& v) {
    std::uint32_t n = 0;
    if (!u32(n)) return false;
    // One bounds check for the whole list: a lying count must not
    // allocate gigabytes, and the entries then read unchecked.
    const std::size_t bytes = std::size_t{n} * kHitBytes;
    if (data_.size() - pos_ < bytes) return fail();
    v.resize(n);
    const char* p = data_.data() + pos_;
    for (core::Hit& h : v) {
      h.position = static_cast<std::size_t>(load_u64(p));
      h.score = load_u32(p + 8);
      p += kHitBytes;
    }
    pos_ += bytes;
    return true;
  }

  /// A well-formed payload is consumed exactly; trailing garbage is a
  /// framing bug worth rejecting.
  bool exhausted() const noexcept { return ok_ && pos_ == data_.size(); }
  bool ok() const noexcept { return ok_; }

 private:
  bool fail() noexcept {
    ok_ = false;
    return false;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

bool read_header(Reader& r, MessageType expected) {
  std::uint8_t type = 0;
  std::uint8_t version = 0;
  return r.u8(type) && r.u8(version) &&
         type == static_cast<std::uint8_t>(expected) &&
         version == kProtocolVersion;
}

void put_header(std::string& out, MessageType type) {
  put_u8(out, static_cast<std::uint8_t>(type));
  put_u8(out, kProtocolVersion);
}

std::size_t payload_size(const AlignResponse& m) {
  return 2 + 8 + 1 + 4 + 8 + 8 + 4 + m.error.size() + 4 + 4 +
         kHitBytes * (m.hits.size() + m.reverse_hits.size());
}

void put_payload(std::string& out, const AlignResponse& m) {
  put_header(out, MessageType::AlignResponse);
  put_u64(out, m.id);
  put_u8(out, m.status);
  put_u32(out, m.retry_after_ms);
  put_f64(out, m.server_seconds);
  put_u64(out, m.generation);
  put_string(out, m.error);
  put_hits(out, m.hits);
  put_hits(out, m.reverse_hits);
}

/// Completes a frame whose payload follows a 4-byte placeholder in `out`:
/// patches the length prefix, then appends the CRC32 of the payload.
/// Body = payload + CRC32(payload): corruption anywhere in the payload is
/// detected end-to-end, whichever direction the frame travels.  (A flipped
/// bit in the 4-byte length prefix still surfaces as a desync / oversized
/// frame, which the malformed-frame hardening already drops.)
void seal_frame(std::string& out) {
  const std::size_t payload = out.size() - 4;
  store_u32(out.data(), static_cast<std::uint32_t>(payload) + kFrameCrcBytes);
  put_u32(out, util::crc32(out.data() + 4, payload));
}

}  // namespace

std::string encode(const AlignRequest& message) {
  std::string out;
  out.reserve(2 + 8 + 4 + 4 + 12 + message.protein.size() +
              message.database.size() + message.tenant.size());
  put_header(out, MessageType::AlignRequest);
  put_u64(out, message.id);
  put_u32(out, message.threshold);
  put_u32(out, message.deadline_ms);
  put_string(out, message.protein);
  put_string(out, message.database);
  put_string(out, message.tenant);
  return out;
}

std::string encode(const AlignResponse& message) {
  std::string out;
  out.reserve(payload_size(message));
  put_payload(out, message);
  return out;
}

std::string encode_framed(AlignResponse& message, std::uint32_t max_payload) {
  if (payload_size(message) > max_payload) {
    message.hits.clear();
    message.reverse_hits.clear();
    message.status = static_cast<std::uint8_t>(core::ErrorCode::BadArgument);
    message.error = "hit list exceeds the response frame limit";
  }
  std::string out;
  out.reserve(4 + payload_size(message) + kFrameCrcBytes);
  out.resize(4);
  put_payload(out, message);
  seal_frame(out);
  return out;
}

std::string encode(const SwapDatabaseRequest& message) {
  std::string out;
  out.reserve(2 + 12 + message.name.size() + message.path.size() +
              message.bases.size());
  put_header(out, MessageType::SwapDatabaseRequest);
  put_string(out, message.name);
  put_string(out, message.path);
  put_string(out, message.bases);
  return out;
}

std::string encode(const SwapDatabaseResponse& message) {
  std::string out;
  out.reserve(2 + 1 + 8 + 4 + message.error.size());
  put_header(out, MessageType::SwapDatabaseResponse);
  put_u8(out, message.status);
  put_u64(out, message.generation);
  put_string(out, message.error);
  return out;
}

std::string encode_stats_request() {
  std::string out;
  put_header(out, MessageType::StatsRequest);
  return out;
}

std::string encode(const StatsResponse& message) {
  std::string out;
  out.reserve(2 + 4 + message.text.size());
  put_header(out, MessageType::StatsResponse);
  put_string(out, message.text);
  return out;
}

std::string frame(std::string_view payload) {
  std::string out;
  out.reserve(4 + payload.size() + kFrameCrcBytes);
  out.resize(4);
  out.append(payload);
  seal_frame(out);
  return out;
}

bool verify_frame_body(std::string_view body, std::string_view& payload) {
  if (body.size() < kFrameCrcBytes) return false;
  const std::string_view data = body.substr(0, body.size() - kFrameCrcBytes);
  if (load_u32(body.data() + data.size()) !=
      util::crc32(data.data(), data.size()))
    return false;
  payload = data;
  return true;
}

MessageType peek_type(std::string_view payload) noexcept {
  return payload.empty()
             ? static_cast<MessageType>(0)
             : static_cast<MessageType>(
                   static_cast<std::uint8_t>(payload.front()));
}

bool decode(std::string_view payload, AlignRequest& out) {
  if (payload.size() > kMaxRequestFrameBytes) return false;
  Reader r{payload};
  AlignRequest m;
  if (!read_header(r, MessageType::AlignRequest) || !r.u64(m.id) ||
      !r.u32(m.threshold) || !r.u32(m.deadline_ms) || !r.string(m.protein) ||
      !r.string(m.database) || !r.string(m.tenant) || !r.exhausted())
    return false;
  out = std::move(m);
  return true;
}

bool decode(std::string_view payload, AlignResponse& out) {
  if (payload.size() > kMaxFrameBytes) return false;
  Reader r{payload};
  AlignResponse m;
  if (!read_header(r, MessageType::AlignResponse) || !r.u64(m.id) ||
      !r.u8(m.status) || !r.u32(m.retry_after_ms) ||
      !r.f64(m.server_seconds) || !r.u64(m.generation) ||
      !r.string(m.error) || !r.hits(m.hits) || !r.hits(m.reverse_hits) ||
      !r.exhausted())
    return false;
  out = std::move(m);
  return true;
}

bool decode(std::string_view payload, SwapDatabaseRequest& out) {
  if (payload.size() > kMaxRequestFrameBytes) return false;
  Reader r{payload};
  SwapDatabaseRequest m;
  if (!read_header(r, MessageType::SwapDatabaseRequest) ||
      !r.string(m.name) || !r.string(m.path) || !r.string(m.bases) ||
      !r.exhausted())
    return false;
  out = std::move(m);
  return true;
}

bool decode(std::string_view payload, SwapDatabaseResponse& out) {
  if (payload.size() > kMaxFrameBytes) return false;
  Reader r{payload};
  SwapDatabaseResponse m;
  if (!read_header(r, MessageType::SwapDatabaseResponse) ||
      !r.u8(m.status) || !r.u64(m.generation) || !r.string(m.error) ||
      !r.exhausted())
    return false;
  out = std::move(m);
  return true;
}

bool decode(std::string_view payload, StatsResponse& out) {
  if (payload.size() > kMaxFrameBytes) return false;
  Reader r{payload};
  StatsResponse m;
  if (!read_header(r, MessageType::StatsResponse) || !r.string(m.text) ||
      !r.exhausted())
    return false;
  out = std::move(m);
  return true;
}

}  // namespace fabp::net
