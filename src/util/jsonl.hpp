// Minimal JSON-line building for run telemetry.
//
// The run trace (obs::Tracer) writes one JSON object per line
// (JSONL). This header provides the only two pieces that needs:
// RFC 8259 string escaping and a small append-only object builder.
// It is deliberately not a JSON library — no parsing, no nesting
// beyond raw sub-objects — so it stays dependency-free and allocation
// light on the hot path.
#pragma once

#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>

namespace ascdg::util {

/// Escapes `text` for use inside a JSON string literal (quotes,
/// backslash, control characters; everything else passes through, so
/// valid UTF-8 input stays valid UTF-8 output).
[[nodiscard]] std::string json_escape(std::string_view text);

/// Append-only builder for one flat JSON object. Keys are emitted in
/// insertion order; duplicate keys are the caller's bug (not checked).
class JsonObject {
 public:
  JsonObject& add(std::string_view key, std::string_view value);
  JsonObject& add(std::string_view key, const char* value) {
    return add(key, std::string_view(value));
  }
  JsonObject& add(std::string_view key, bool value);
  /// Finite doubles render shortest-round-trip; NaN / infinity (which
  /// JSON cannot represent) render as null.
  JsonObject& add(std::string_view key, double value);

  template <std::integral T>
    requires(!std::same_as<T, bool>)
  JsonObject& add(std::string_view key, T value) {
    if constexpr (std::signed_integral<T>) {
      return add_int(key, static_cast<std::int64_t>(value));
    } else {
      return add_uint(key, static_cast<std::uint64_t>(value));
    }
  }

  /// Splices `json` in verbatim — for pre-built arrays / sub-objects.
  JsonObject& add_raw(std::string_view key, std::string_view json);

  /// Appends every field of `other` after this object's fields.
  JsonObject& merge(const JsonObject& other);

  [[nodiscard]] bool empty() const noexcept { return body_.empty(); }

  /// The complete object, braces included.
  [[nodiscard]] std::string str() const;

 private:
  JsonObject& add_int(std::string_view key, std::int64_t value);
  JsonObject& add_uint(std::string_view key, std::uint64_t value);
  void append_key(std::string_view key);

  std::string body_;
};

}  // namespace ascdg::util
