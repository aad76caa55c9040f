#include "support/table.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "support/error.hpp"

namespace pfsc {

std::string fmt_double(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

std::string fmt_int(long long v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%lld", v);
  return buf;
}

TextTable::TextTable(std::vector<std::string> header) : header_(std::move(header)) {
  PFSC_REQUIRE(!header_.empty(), "TextTable: header must not be empty");
}

void TextTable::add_row(std::vector<std::string> cells) {
  PFSC_REQUIRE(cells.size() == header_.size(), "TextTable: row width mismatch");
  rows_.push_back(std::move(cells));
}

TextTable& TextTable::cell(std::string value) {
  pending_.push_back(std::move(value));
  return *this;
}

void TextTable::end_row() {
  add_row(std::move(pending_));
  pending_.clear();
}

std::string TextTable::to_string() const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& row) {
    out << "|";
    for (std::size_t c = 0; c < row.size(); ++c) {
      out << ' ';
      out << std::string(widths[c] - row[c].size(), ' ') << row[c];
      out << " |";
    }
    out << '\n';
  };
  emit_row(header_);
  out << "|";
  for (std::size_t c = 0; c < header_.size(); ++c) {
    out << std::string(widths[c] + 2, '-') << "|";
  }
  out << '\n';
  for (const auto& row : rows_) emit_row(row);
  return out.str();
}

void TextTable::print(const std::string& caption) const {
  if (!caption.empty()) std::printf("%s\n", caption.c_str());
  std::fputs(to_string().c_str(), stdout);
  std::printf("\n");
}

FigureSeries::FigureSeries(std::string x_label, std::vector<std::string> series_names)
    : x_label_(std::move(x_label)), names_(std::move(series_names)) {
  PFSC_REQUIRE(!names_.empty(), "FigureSeries: need at least one series");
  ys_.resize(names_.size());
}

void FigureSeries::add_point(double x, std::vector<double> ys) {
  PFSC_REQUIRE(ys.size() == names_.size(), "FigureSeries: point width mismatch");
  xs_.push_back(x);
  for (std::size_t s = 0; s < ys.size(); ++s) ys_[s].push_back(ys[s]);
}

void FigureSeries::print(const std::string& caption, int chart_width) const {
  std::vector<std::string> header{x_label_};
  header.insert(header.end(), names_.begin(), names_.end());
  TextTable table(std::move(header));
  for (std::size_t p = 0; p < xs_.size(); ++p) {
    std::vector<std::string> row{fmt_double(xs_[p], 0)};
    for (const auto& series : ys_) row.push_back(fmt_double(series[p], 2));
    table.add_row(std::move(row));
  }
  table.print(caption);

  // ASCII sketch: one bar block per point for the first series, marks for the
  // rest, all scaled to the global max. Enough to eyeball figure shape.
  double max_y = 0.0;
  for (const auto& series : ys_) {
    for (double y : series) max_y = std::max(max_y, y);
  }
  if (max_y <= 0.0) return;
  for (std::size_t p = 0; p < xs_.size(); ++p) {
    std::printf("%10.0f ", xs_[p]);
    for (std::size_t s = 0; s < ys_.size(); ++s) {
      const int len = static_cast<int>(std::lround(
          ys_[s][p] / max_y * static_cast<double>(chart_width)));
      if (s == 0) {
        std::printf("|%s%s", std::string(static_cast<std::size_t>(len), '#').c_str(),
                    std::string(static_cast<std::size_t>(chart_width - len), ' ').c_str());
      } else {
        std::printf(" %c@%d", static_cast<char>('a' + (s - 1)), len);
      }
    }
    std::printf("\n");
  }
  std::printf("\n");
}

}  // namespace pfsc
