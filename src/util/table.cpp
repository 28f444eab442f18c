#include "util/table.h"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "util/require.h"

namespace wmatch {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  WMATCH_REQUIRE(!header_.empty(), "table needs at least one column");
}

void Table::add_row(std::vector<std::string> row) {
  WMATCH_REQUIRE(row.size() == header_.size(), "row arity mismatch");
  rows_.push_back(std::move(row));
}

std::string Table::fmt(double x, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << x;
  return os.str();
}

std::string Table::fmt(std::int64_t x) { return std::to_string(x); }
std::string Table::fmt(std::size_t x) { return std::to_string(x); }

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      width[c] = std::max(width[c], row[c].size());

  auto line = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << std::left << std::setw(static_cast<int>(width[c]) + 2) << cells[c];
    }
    os << '\n';
  };
  line(header_);
  std::size_t total = 0;
  for (auto w : width) total += w + 2;
  os << std::string(total, '-') << '\n';
  for (const auto& row : rows_) line(row);
}

}  // namespace wmatch
