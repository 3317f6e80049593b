// Minimal dependency-free JSON reader/writer for scenario files and
// structured result emission.
//
// Design points that matter for this repository:
//  * Objects preserve insertion order (std::vector of members, not a map),
//    so serialization is deterministic and scenario files stay readable in
//    the order their author wrote them.
//  * Numbers keep their parsed representation: an integer literal stays a
//    64-bit integer, everything else is a double. Doubles serialize via
//    std::to_chars (shortest round-trip form), with a ".0" suffix added to
//    integral-looking values so the int/double distinction survives a
//    dump/parse cycle. This makes emitted result files byte-stable across
//    runs and thread counts.
//  * All accessors throw JsonError with a message naming the actual and the
//    expected type; parse errors carry line:column positions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gtrix {

class JsonError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The enumerator of E that `names` (indexed by enumerator value) spells
/// `name`; throws JsonError naming `what` and listing the valid names.
template <class E, std::size_t N>
E enum_from_name(const std::string_view (&names)[N], std::string_view name, const char* what) {
  std::string valid;
  for (std::size_t i = 0; i < N; ++i) {
    if (names[i] == name) return static_cast<E>(i);
    valid += (i == 0 ? "" : ", ") + std::string(names[i]);
  }
  throw JsonError("unknown " + std::string(what) + " '" + std::string(name) + "' (valid: " +
                  valid + ")");
}

class Json {
 public:
  enum class Type { kNull, kBool, kInt, kDouble, kString, kArray, kObject };
  using Array = std::vector<Json>;
  using Member = std::pair<std::string, Json>;
  using Object = std::vector<Member>;

  Json() = default;  // null
  Json(std::nullptr_t) {}
  Json(bool b) : type_(Type::kBool), bool_(b) {}
  Json(int v) : type_(Type::kInt), int_(v) {}
  Json(unsigned v) : type_(Type::kInt), int_(v) {}
  Json(long v) : type_(Type::kInt), int_(v) {}
  Json(long long v) : type_(Type::kInt), int_(v) {}
  Json(unsigned long v);
  Json(unsigned long long v);
  Json(double v) : type_(Type::kDouble), double_(v) {}
  Json(const char* s) : type_(Type::kString), string_(s) {}
  Json(std::string_view s) : type_(Type::kString), string_(s) {}
  Json(std::string s) : type_(Type::kString), string_(std::move(s)) {}

  static Json array(Array items = {});
  static Json object(Object members = {});

  Type type() const noexcept { return type_; }
  const char* type_name() const noexcept { return type_name(type_); }
  static const char* type_name(Type t) noexcept;

  bool is_null() const noexcept { return type_ == Type::kNull; }
  bool is_bool() const noexcept { return type_ == Type::kBool; }
  bool is_int() const noexcept { return type_ == Type::kInt; }
  bool is_double() const noexcept { return type_ == Type::kDouble; }
  bool is_number() const noexcept { return is_int() || is_double(); }
  bool is_string() const noexcept { return type_ == Type::kString; }
  bool is_array() const noexcept { return type_ == Type::kArray; }
  bool is_object() const noexcept { return type_ == Type::kObject; }

  /// Typed accessors; each throws JsonError naming actual vs expected type.
  bool as_bool() const;
  std::int64_t as_int() const;   ///< integers only (a double 3.0 is rejected)
  std::uint64_t as_u64() const;  ///< non-negative integers only
  double as_double() const;      ///< accepts both int and double
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;

  // --- object helpers -------------------------------------------------------
  /// First member with this key, or nullptr. Objects only (throws otherwise).
  const Json* find(std::string_view key) const;
  bool contains(std::string_view key) const { return find(key) != nullptr; }
  /// Like find() but throws JsonError("missing key 'k'") when absent.
  const Json& at(std::string_view key) const;
  /// Inserts or overwrites; insertion order is preserved for new keys.
  Json& set(std::string_view key, Json value);

  // --- array helpers --------------------------------------------------------
  Json& push_back(Json value);
  std::size_t size() const;  ///< element/member count (arrays and objects)
  const Json& operator[](std::size_t i) const;

  /// Serializes. indent < 0 -> compact one-line form; indent >= 0 -> pretty
  /// form with that many spaces per level. Deterministic for a given value.
  std::string dump(int indent = -1) const;

  /// Parses a complete JSON document (rejects trailing garbage). Throws
  /// JsonError with "line L, column C" context on malformed input.
  static Json parse(std::string_view text);

  /// Deep equality. Numbers compare by value across the int/double divide
  /// (int 2 == double 2.0); everything else compares strictly.
  bool operator==(const Json& other) const;

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Type type_ = Type::kNull;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

}  // namespace gtrix
