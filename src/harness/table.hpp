// Tiny fixed-width / markdown table printer for the benchmark harness so
// every bench binary prints paper-style rows uniformly.
#pragma once

#include <iostream>
#include <sstream>
#include <string>
#include <vector>

namespace ares::harness {

class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  template <typename... Cells>
  void add_row(Cells&&... cells) {
    std::vector<std::string> row;
    (row.push_back(to_cell(std::forward<Cells>(cells))), ...);
    rows_.push_back(std::move(row));
  }

  /// One row of already formatted cells.
  void add_cells(std::vector<std::string> row) {
    rows_.push_back(std::move(row));
  }

  void print(std::ostream& os = std::cout) const;

 private:
  template <typename T>
  static std::string to_cell(T&& v) {
    if constexpr (std::is_convertible_v<T, std::string>) {
      return std::string(std::forward<T>(v));
    } else {
      std::ostringstream ss;
      ss << v;
      return ss.str();
    }
  }

  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with `digits` decimals.
[[nodiscard]] std::string fmt(double v, int digits = 2);

}  // namespace ares::harness
