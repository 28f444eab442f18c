// Plain-text table printer: the sweep engine and bench_micro_kernels print
// their rows in the same aligned format.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace wmatch {

class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Append a row; must have the same arity as the header.
  void add_row(std::vector<std::string> row);

  /// Convenience: formats doubles with the given precision.
  static std::string fmt(double x, int precision = 4);
  static std::string fmt(std::int64_t x);
  static std::string fmt(std::size_t x);

  void print(std::ostream& os) const;

  std::size_t rows() const { return rows_.size(); }
  std::size_t columns() const { return header_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace wmatch
