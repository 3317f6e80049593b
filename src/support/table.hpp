// Aligned plain-text table rendering for benchmark harness output.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace gtrix {

/// Builds a column-aligned ASCII table. Numeric cells are formatted with a
/// configurable precision; the header row is separated by a rule.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Starts a new row. Cells are appended with operator<< style add() calls.
  Table& row();
  Table& add(std::string cell);
  Table& add(const char* cell);
  Table& add(double value, int precision = 3);
  Table& add(std::int64_t value);
  Table& add(std::uint64_t value);
  Table& add(int value);

  /// Renders the table, including header and separator rule.
  std::string render() const;

  /// Renders as comma-separated values (no alignment), for machine use.
  std::string render_csv() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with fixed precision, trimming to a compact width.
std::string format_double(double value, int precision = 3);

}  // namespace gtrix
