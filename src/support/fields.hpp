// Field lists: one declaration per config type that names each JSON key
// once, in emission order, with its member and its rule. A type's list is
// `fields_of(const T*)`, declared next to the struct (found by argument-
// dependent lookup) with a GTRIX_CKPT_FIELDS pin of the struct's member
// count, so a member added without a list entry fails the build.
// scenario/spec.cpp walks the lists to parse, emit and compare configs.
#pragma once

#include <cstddef>
#include <limits>
#include <tuple>

namespace gtrix {

struct FieldRule {
  /// Whole-number bounds checked on parse (for a list, min 1 = non-empty);
  /// `above` makes `min` exclusive.
  double min = -std::numeric_limits<double>::infinity();
  double max = std::numeric_limits<double>::infinity();
  bool above = false;
  bool omit_default = false;  ///< not emitted at the default-constructed owner's value
  bool required = false;      ///< the object form must name the key
  /// A word accepted instead of a number. It stores `sentinel_value`, which
  /// the bounds exclude, for the cell's resolution to replace.
  const char* sentinel = nullptr;
  double sentinel_value = 0.0;
};

/// An entry, `Field<&T::member>{"key", {rule}}`: the key and the member it
/// binds, reached through `Path` (two pointers reach a member's member).
template <auto... Path>
struct Field {
  const char* key;
  FieldRule rule{};
  static auto& get(auto& owner) { return (owner .* ... .* Path); }
};

/// An entry for a registry-driven component: `Registry()` parses,
/// canonicalizes and emits the member's ComponentSpec.
template <auto Member, auto Registry>
struct ComponentField {
  const char* key;
  FieldRule rule{};
  static auto& get(auto& owner) { return owner.*Member; }
  static auto& registry() { return Registry(); }
};

template <class T>
concept Listed = requires { fields_of(static_cast<const T*>(nullptr)); };

/// Calls `fn(entry)` for each entry of T's list, in order.
template <Listed T, class Fn>
void for_each_field(Fn&& fn) {
  std::apply([&](const auto&... entry) { (fn(entry), ...); },
             fields_of(static_cast<const T*>(nullptr)));
}

}  // namespace gtrix

namespace gtrix::probe {

// Compile-time field counter for aggregates: the largest N for which
// T{AnyConv, ... N times ...} is well-formed. Each direct member counts
// once (std::array members count as one -- AnyConv converts to the array
// wholesale).
struct AnyConv {
  template <class T>
  operator T() const;  // never defined: overload-resolution probe only
};

template <class T, class... Seen>
constexpr std::size_t field_count() {
  if constexpr (requires { T{Seen{}..., AnyConv{}}; }) {
    return field_count<T, Seen..., AnyConv>();
  } else {
    return sizeof...(Seen);
  }
}

}  // namespace gtrix::probe

// Pins an aggregate's field count: every field list and every struct a
// checkpoint codec serializes carries one (ckpt/detail.hpp).
// NOLINTBEGIN(bugprone-macro-parentheses): T is a type name, not an expression
#define GTRIX_CKPT_FIELDS(T, N)                                            \
  static_assert(::gtrix::probe::field_count<T>() == (N),                  \
                #T " changed shape: audit its field list or checkpoint "   \
                   "codec right here, then update this field count")
// NOLINTEND(bugprone-macro-parentheses)
