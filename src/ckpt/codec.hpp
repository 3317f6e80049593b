// Checkpoint container format (docs/checkpointing.md).
//
// A checkpoint is a single binary file:
//
//   magic "GTRXCKPT" (8 bytes)
//   u32  format version (kCkptFormatVersion)
//   u32  header length
//   JSON header (UTF-8, human-readable: tools/ckpt_inspect.py dumps it)
//   sections: { u32 name length | name | u64 body length | body } ...
//   u32  CRC-32 over every preceding byte (zlib polynomial, so Python's
//        zlib.crc32 verifies it without any native code)
//
// All integers are little-endian; doubles travel as their IEEE-754 bit
// pattern (bit_cast), so NaN payloads -- the recorder's missing-pulse
// sentinel -- survive the round trip exactly. The header carries the full
// experiment config and the engine fingerprint; the sections carry raw
// mutable state only. Restore rebuilds a fresh World from the header's
// config (construction is deterministic) and overwrites its mutable state
// from the sections, so anything derivable from the config -- topology,
// edge delays, clock parameters, RNG split structure -- is never stored.
//
// Versioning is hard: a mismatched version, bad magic, truncated file or
// CRC failure throws CkptError with a path-qualified message; callers map
// it to exit code 2 (validation), never to undefined behavior.
#pragma once

#include <cstdint>
#include <functional>
#include <iterator>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace gtrix {

class TimerTarget;

inline constexpr std::string_view kCkptMagic = "GTRXCKPT";
// v2: recorder corruption-anchored retention state (pin box, early list,
// lost ranges) and the streaming suppression counter.
// v3: the header's engine fingerprint shrinks to {"shards": N}.
// v4: recorder node logs drop the iteration-record retention fields of the
// deleted windowed recording mode.
// v5: the runner's meta carries the cell fingerprint (config and
// corruption plan), which a resume compares.
// v6: the "net" section drops the serial engine's own message counters and
// always carries the per-shard counter cells (one on the serial engine).
// v7: recorder node logs drop the v2 retention state (a corrupt streaming
// cell keeps its whole pulse trace), the recorder its pinned-pulse counter,
// and the "streaming" section its suppression counter.
// v8: a done file's skew deviations drop the `exact` flag (one quantile
// method), and a corrupt streaming snapshot carries no "streaming" section
// (a corrupt cell keeps no live accumulator).
// v9: a gradient node's three timer handles become its two deadlines and
// the handle of its one queue entry; the timer-cancel count moves to the
// Simulator.
// v10: the "streaming" section saves the deviation sum as an exact 34-word
// integer in place of the running mean's six-word summary, and a saved RNG
// stream drops the Box-Muller spare (the "faults" section).
// v11: the "streaming" section splits its tallies into one record per shard
// and adds the shards' folded layer extrema.
inline constexpr std::uint32_t kCkptFormatVersion = 11;

/// Any checkpoint failure: unreadable/corrupt/truncated files, version
/// mismatches, snapshot/config mismatches. Messages are path-qualified by
/// the I/O layer.
class CkptError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// CRC-32 (zlib polynomial 0xEDB88320, init/final xor 0xffffffff), chosen so
/// ckpt_inspect.py can verify files with the stdlib's zlib.crc32.
std::uint32_t ckpt_crc32(const std::uint8_t* data, std::size_t n);

/// Serializer for the section region. Primitives append little-endian;
/// write_section frames a named section around its codec, finish()
/// assembles the whole file image (magic, version, header, sections, CRC).
class CkptWriter {
 public:
  /// Appends section `name`, its body written by `body(CkptIo&)`.
  template <class Body>
  void write_section(std::string_view name, const Body& body);

  void u8(std::uint8_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v);
  void f64(double v);  ///< IEEE-754 bit pattern; NaN payloads preserved

  /// Assembles the complete file image. `header_json` is stored verbatim.
  std::vector<std::uint8_t> finish(std::string_view header_json) const;

 private:
  void begin_section(std::string_view name);
  void end_section();

  std::vector<std::uint8_t> body_;
  std::size_t open_len_at_ = 0;  ///< offset of the open section's length field
  bool section_open_ = false;
};

/// Bounds-checked reader over one section's body. Every primitive throws
/// CkptError("truncated checkpoint section ...") instead of reading past
/// the end; expect_done() catches trailing garbage. Every element count
/// that sizes an allocation or a decode loop is read through count(); a
/// bare u64() count is only ever compared against this configuration's
/// own sizes.
class CkptCursor {
 public:
  CkptCursor(const std::uint8_t* begin, const std::uint8_t* end, std::string name)
      : p_(begin), end_(end), name_(std::move(name)) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64();
  double f64();

  /// Reads a u64 element count ahead of decoding that many elements of at
  /// least `min_bytes` encoded bytes each. Throws a section-qualified
  /// CkptError naming `what` when the elements cannot fit in the bytes
  /// left, so an inflated count in a CRC-valid file fails before anything
  /// is allocated or looped over.
  std::uint64_t count(std::size_t min_bytes, std::string_view what);

  bool done() const noexcept { return p_ == end_; }
  void expect_done() const;
  const std::string& name() const noexcept { return name_; }

 private:
  void need(std::size_t n) const;

  const std::uint8_t* p_;
  const std::uint8_t* end_;
  std::string name_;
};

/// One codec for both directions. A state holder's `checkpoint(CkptIo&)`
/// names each serialized field once, in wire order: saving appends the
/// field to a CkptWriter, restoring overwrites it from a CkptCursor. The
/// primitives take references for that reason; a save only reads them.
class CkptIo {
 public:
  explicit CkptIo(CkptWriter& w) noexcept : w_(&w) {}
  explicit CkptIo(CkptCursor& cur) noexcept : cur_(&cur) {}

  bool saving() const noexcept { return w_ != nullptr; }

  void u8(std::uint8_t& v) { saving() ? w_->u8(v) : void(v = cur_->u8()); }
  void u32(std::uint32_t& v) { saving() ? w_->u32(v) : void(v = cur_->u32()); }
  void u64(std::uint64_t& v) { saving() ? w_->u64(v) : void(v = cur_->u64()); }
  void i64(std::int64_t& v) { saving() ? w_->i64(v) : void(v = cur_->i64()); }
  void f64(double& v) { saving() ? w_->f64(v) : void(v = cur_->f64()); }
  /// One byte, 0 or 1; any nonzero byte restores as true.
  void flag(bool& v) { saving() ? w_->u8(v ? 1 : 0) : void(v = cur_->u8() != 0); }

  /// A count this configuration already fixes (nodes, bins, lane sizes,
  /// shards): saving writes `n`; restoring reads the saved count and throws
  /// a CkptError naming `what` and both counts unless it equals `n`.
  /// same_count travels as a u64, same_u32 as a u32.
  void same_count(std::uint64_t n, std::string_view what);
  void same_u32(std::uint32_t n, std::string_view what);

  /// A run whose length the configuration or the type fixes (a vector or
  /// a std::array): same_count(size), then `fn(io, element)` for each
  /// element.
  template <class Run, class Fn>
  void each(Run& run, std::string_view what, Fn fn) {
    same_count(std::size(run), what);
    for (auto&& x : run) std::invoke(fn, *this, x);
  }

  /// A run whose length is state: the u64 length, then `fn(io, element)`
  /// for each element. Restoring reads the length only through
  /// CkptCursor::count (at least `min_bytes` per element) and resizes `v`
  /// to it before decoding into the elements.
  template <class T, class Fn>
  void vec(std::vector<T>& v, std::size_t min_bytes, std::string_view what, Fn fn) {
    if (saving()) {
      w_->u64(v.size());
    } else {
      const std::uint64_t n = cur_->count(min_bytes, what);
      v.clear();
      v.resize(static_cast<std::size_t>(n));
    }
    for (auto&& x : v) std::invoke(fn, *this, x);
  }

 private:
  CkptWriter* w_ = nullptr;
  CkptCursor* cur_ = nullptr;
};

template <class Body>
void CkptWriter::write_section(std::string_view name, const Body& body) {
  begin_section(name);
  CkptIo io(*this);
  body(io);
  end_section();
}

/// A parsed checkpoint file: validated container (magic, version, CRC,
/// section framing) with random access to the header and named sections.
class CkptFile {
 public:
  /// Parses and validates `bytes`; `path` qualifies every error message.
  /// Throws CkptError on bad magic, unsupported version, truncation or CRC
  /// mismatch.
  static CkptFile parse(std::vector<std::uint8_t> bytes, const std::string& path);

  const std::string& path() const noexcept { return path_; }
  const std::string& header_json() const noexcept { return header_; }

  bool has_section(std::string_view name) const;

  /// Decodes section `name` with `body(CkptIo&)` to its last byte. Throws
  /// CkptError when the section is absent, and prefixes this file's path
  /// to every decoder error (which names the section and, for counts, the
  /// element).
  template <class Body>
  void read_section(std::string_view name, const Body& body) const {
    CkptCursor cur = section(name);
    try {
      CkptIo io(cur);
      body(io);
      cur.expect_done();
    } catch (const CkptError& e) {
      throw CkptError(path_ + ": " + e.what());
    }
  }

 private:
  /// Cursor over the named section's body; throws CkptError when absent.
  CkptCursor section(std::string_view name) const;

  struct Section {
    std::string name;
    std::size_t offset = 0;
    std::size_t len = 0;
  };

  std::vector<std::uint8_t> bytes_;
  std::string path_;
  std::string header_;
  std::vector<Section> sections_;
};

/// Reads a whole file; throws CkptError with the path on any I/O failure.
std::vector<std::uint8_t> ckpt_read_file(const std::string& path);

/// Writes `bytes` to `path` atomically (temp file in the same directory,
/// fsync'd, then renamed over the target), so a crash mid-write can never
/// leave a half-written checkpoint under the final name.
void ckpt_write_file_atomic(const std::string& path, const std::vector<std::uint8_t>& bytes);

/// Bidirectional TimerTarget <-> dense id mapping for event-queue
/// serialization. The World enumerates its targets in deterministic
/// construction order; a queue entry's target pointer round-trips as the
/// target's index in that enumeration.
class CkptTargetMap {
 public:
  void add(TimerTarget* target);
  std::uint32_t id_of(const TimerTarget* target) const;  ///< throws if unknown
  TimerTarget* target_of(std::uint32_t id) const;        ///< throws if out of range
  std::size_t size() const noexcept { return targets_.size(); }

 private:
  std::vector<TimerTarget*> targets_;
  std::unordered_map<const TimerTarget*, std::uint32_t> ids_;
};

}  // namespace gtrix
