#include "ckpt/codec.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "support/check.hpp"

namespace gtrix {

namespace {

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  return table;
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

}  // namespace

std::uint32_t ckpt_crc32(const std::uint8_t* data, std::size_t n) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t c = 0xffffffffu;
  for (std::size_t i = 0; i < n; ++i) c = table[(c ^ data[i]) & 0xffu] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

// --- CkptWriter --------------------------------------------------------------

void CkptWriter::begin_section(std::string_view name) {
  GTRIX_CHECK_MSG(!section_open_, "nested checkpoint sections");
  put_u32(body_, static_cast<std::uint32_t>(name.size()));
  body_.insert(body_.end(), name.begin(), name.end());
  open_len_at_ = body_.size();
  put_u64(body_, 0);  // patched by end_section
  section_open_ = true;
}

void CkptWriter::end_section() {
  GTRIX_CHECK_MSG(section_open_, "end_section without begin_section");
  const std::uint64_t len = body_.size() - open_len_at_ - 8;
  for (int i = 0; i < 8; ++i)
    body_[open_len_at_ + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(len >> (8 * i));
  section_open_ = false;
}

void CkptWriter::u8(std::uint8_t v) { body_.push_back(v); }
void CkptWriter::u32(std::uint32_t v) { put_u32(body_, v); }
void CkptWriter::u64(std::uint64_t v) { put_u64(body_, v); }
void CkptWriter::i64(std::int64_t v) { put_u64(body_, static_cast<std::uint64_t>(v)); }
void CkptWriter::f64(double v) { put_u64(body_, std::bit_cast<std::uint64_t>(v)); }

std::vector<std::uint8_t> CkptWriter::finish(std::string_view header_json) const {
  GTRIX_CHECK_MSG(!section_open_, "finish with an open checkpoint section");
  std::vector<std::uint8_t> out;
  out.reserve(kCkptMagic.size() + 8 + header_json.size() + body_.size() + 4);
  for (const char c : kCkptMagic) out.push_back(static_cast<std::uint8_t>(c));
  put_u32(out, kCkptFormatVersion);
  put_u32(out, static_cast<std::uint32_t>(header_json.size()));
  // Size once, then copy into place: GCC 12 misreads a range insert after
  // push_backs as a write past the end (-Wstringop-overflow).
  const std::size_t header_at = out.size();
  out.resize(header_at + header_json.size() + body_.size());
  std::copy(header_json.begin(), header_json.end(), out.begin() + header_at);
  std::copy(body_.begin(), body_.end(), out.begin() + header_at + header_json.size());
  put_u32(out, ckpt_crc32(out.data(), out.size()));
  return out;
}

// --- CkptCursor --------------------------------------------------------------

void CkptCursor::need(std::size_t n) const {
  if (static_cast<std::size_t>(end_ - p_) < n) {
    throw CkptError("truncated checkpoint section '" + name_ + "'");
  }
}

std::uint8_t CkptCursor::u8() {
  need(1);
  return *p_++;
}

std::uint32_t CkptCursor::u32() {
  need(4);
  const std::uint32_t v = get_u32(p_);
  p_ += 4;
  return v;
}

std::uint64_t CkptCursor::u64() {
  need(8);
  const std::uint64_t v = get_u64(p_);
  p_ += 8;
  return v;
}

std::int64_t CkptCursor::i64() { return static_cast<std::int64_t>(u64()); }

double CkptCursor::f64() { return std::bit_cast<double>(u64()); }

std::uint64_t CkptCursor::count(std::size_t min_bytes, std::string_view what) {
  GTRIX_CHECK_MSG(min_bytes > 0, "checkpoint element size must be positive");
  const std::uint64_t n = u64();
  const auto left = static_cast<std::uint64_t>(end_ - p_);
  if (n > left / min_bytes) {
    throw CkptError("checkpoint section '" + name_ + "': " + std::string(what) + " count " +
                    std::to_string(n) + " needs at least " + std::to_string(min_bytes) +
                    " byte(s) each but only " + std::to_string(left) +
                    " byte(s) are left (corrupt file)");
  }
  return n;
}

void CkptCursor::expect_done() const {
  if (!done()) {
    throw CkptError("checkpoint section '" + name_ + "' has trailing bytes (corrupt file)");
  }
}

// --- CkptIo ------------------------------------------------------------------

namespace {

[[noreturn]] void count_mismatch(const CkptCursor& cur, std::string_view what, std::uint64_t saved,
                                 std::uint64_t now) {
  throw CkptError("checkpoint section '" + cur.name() + "': " + std::string(what) + " count " +
                  std::to_string(saved) + " does not match this configuration's " +
                  std::to_string(now) + " (different configuration or corrupt file)");
}

}  // namespace

void CkptIo::same_count(std::uint64_t n, std::string_view what) {
  std::uint64_t saved = n;
  u64(saved);
  if (saved != n) count_mismatch(*cur_, what, saved, n);
}

void CkptIo::same_u32(std::uint32_t n, std::string_view what) {
  std::uint32_t saved = n;
  u32(saved);
  if (saved != n) count_mismatch(*cur_, what, saved, n);
}

// --- CkptFile ----------------------------------------------------------------

CkptFile CkptFile::parse(std::vector<std::uint8_t> bytes, const std::string& path) {
  CkptFile file;
  file.bytes_ = std::move(bytes);
  file.path_ = path;
  const std::vector<std::uint8_t>& b = file.bytes_;
  const std::size_t min_size = kCkptMagic.size() + 4 + 4 + 4;  // magic ver hlen crc
  if (b.size() < min_size ||
      std::memcmp(b.data(), kCkptMagic.data(), kCkptMagic.size()) != 0) {
    throw CkptError(path + ": not a gtrix checkpoint (bad magic)");
  }
  std::size_t at = kCkptMagic.size();
  const std::uint32_t version = get_u32(b.data() + at);
  at += 4;
  if (version != kCkptFormatVersion) {
    throw CkptError(path + ": checkpoint format version " + std::to_string(version) +
                    " is not supported (this build reads version " +
                    std::to_string(kCkptFormatVersion) + ")");
  }
  // CRC first: every later framing error on a CRC-clean file is a real
  // format bug, not bit rot.
  const std::uint32_t stored_crc = get_u32(b.data() + b.size() - 4);
  const std::uint32_t actual_crc = ckpt_crc32(b.data(), b.size() - 4);
  if (stored_crc != actual_crc) {
    throw CkptError(path + ": checkpoint CRC mismatch (truncated or corrupt file)");
  }
  const std::size_t body_end = b.size() - 4;
  const std::uint32_t header_len = get_u32(b.data() + at);
  at += 4;
  if (body_end - at < header_len) {
    throw CkptError(path + ": truncated checkpoint (header extends past end of file)");
  }
  // gtrix-lint: allow(reinterpret-cast) -- uint8_t* to char* over the vector's own live bytes; char-level access is defined for any object type
  file.header_.assign(reinterpret_cast<const char*>(b.data() + at), header_len);
  at += header_len;
  while (at < body_end) {
    if (body_end - at < 4) throw CkptError(path + ": truncated checkpoint section table");
    const std::uint32_t name_len = get_u32(b.data() + at);
    at += 4;
    if (body_end - at < name_len) {
      throw CkptError(path + ": truncated checkpoint section name");
    }
    Section section;
    // gtrix-lint: allow(reinterpret-cast) -- same uint8_t* to char* aliasing as the header read above; no alignment or lifetime hazard
    section.name.assign(reinterpret_cast<const char*>(b.data() + at), name_len);
    at += name_len;
    if (body_end - at < 8) throw CkptError(path + ": truncated checkpoint section length");
    const std::uint64_t body_len = get_u64(b.data() + at);
    at += 8;
    if (body_end - at < body_len) {
      throw CkptError(path + ": truncated checkpoint section '" + section.name + "'");
    }
    section.offset = at;
    section.len = body_len;
    at += body_len;
    file.sections_.push_back(std::move(section));
  }
  return file;
}

bool CkptFile::has_section(std::string_view name) const {
  for (const Section& s : sections_) {
    if (s.name == name) return true;
  }
  return false;
}

CkptCursor CkptFile::section(std::string_view name) const {
  for (const Section& s : sections_) {
    if (s.name == name) {
      return CkptCursor(bytes_.data() + s.offset, bytes_.data() + s.offset + s.len, s.name);
    }
  }
  throw CkptError(path_ + ": checkpoint has no section '" + std::string(name) +
                  "' (corrupt or incompatible file)");
}

// --- file I/O ----------------------------------------------------------------

std::vector<std::uint8_t> ckpt_read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw CkptError(path + ": cannot open checkpoint: " + std::strerror(errno));
  }
  std::vector<std::uint8_t> bytes;
  std::array<std::uint8_t, 1 << 16> chunk;
  std::size_t n;
  while ((n = std::fread(chunk.data(), 1, chunk.size(), f)) > 0) {
    bytes.insert(bytes.end(), chunk.data(), chunk.data() + n);
  }
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) throw CkptError(path + ": read error");
  return bytes;
}

void ckpt_write_file_atomic(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    throw CkptError(tmp + ": cannot create checkpoint: " + std::strerror(errno));
  }
  const bool wrote = bytes.empty() || std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  // fflush moves the stdio buffer into the kernel; fsync moves the kernel's
  // copy to the device. Without the latter the rename can land while the data
  // blocks are still dirty, and a crash leaves a named-but-empty checkpoint --
  // exactly the torn file the tmp+rename dance promises to rule out.
  const bool flushed = std::fflush(f) == 0;
#if defined(__unix__) || defined(__APPLE__)
  const bool synced = flushed && fsync(fileno(f)) == 0;
#else
  const bool synced = flushed;
#endif
  std::fclose(f);
  if (!wrote || !flushed || !synced) {
    std::remove(tmp.c_str());
    throw CkptError(tmp + ": short write while saving checkpoint");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw CkptError(path + ": cannot move checkpoint into place: " + std::strerror(errno));
  }
}

// --- CkptTargetMap -----------------------------------------------------------

void CkptTargetMap::add(TimerTarget* target) {
  GTRIX_CHECK_MSG(target != nullptr, "null checkpoint target");
  const auto [it, inserted] =
      ids_.emplace(target, static_cast<std::uint32_t>(targets_.size()));
  GTRIX_CHECK_MSG(inserted, "duplicate checkpoint target");
  targets_.push_back(target);
}

std::uint32_t CkptTargetMap::id_of(const TimerTarget* target) const {
  const auto it = ids_.find(target);
  if (it == ids_.end()) {
    throw CkptError(
        "pending event targets an object outside the checkpoint target map "
        "(the algorithm or a custom component does not support checkpointing)");
  }
  return it->second;
}

TimerTarget* CkptTargetMap::target_of(std::uint32_t id) const {
  if (id >= targets_.size()) {
    throw CkptError("checkpoint event target id " + std::to_string(id) +
                    " out of range (corrupt file or mismatched config)");
  }
  return targets_[id];
}

}  // namespace gtrix
