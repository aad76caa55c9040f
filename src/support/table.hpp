// Plain-text table and figure-series formatting for bench output.
//
// Every bench binary prints the paper's tables/figures side by side with the
// simulator's measurements; these helpers keep that output consistent.
#pragma once

#include <string>
#include <vector>

namespace pfsc {

/// Right-aligned fixed-point formatting helpers.
std::string fmt_double(double v, int precision = 2);
std::string fmt_int(long long v);

/// A simple monospace table: header row plus data rows, auto column widths.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  void add_row(std::vector<std::string> cells);
  TextTable& cell(std::string value);
  void end_row();

  std::string to_string() const;
  /// Print to stdout with an optional caption line.
  void print(const std::string& caption = "") const;

  std::size_t rows() const { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
  std::vector<std::string> pending_;
};

/// An (x, series...) dataset representing one paper figure; rendered as a
/// table plus an ASCII sketch so shapes are visible in terminal output.
class FigureSeries {
 public:
  FigureSeries(std::string x_label, std::vector<std::string> series_names);

  void add_point(double x, std::vector<double> ys);
  void print(const std::string& caption, int chart_width = 60) const;

 private:
  std::string x_label_;
  std::vector<std::string> names_;
  std::vector<double> xs_;
  std::vector<std::vector<double>> ys_;  // [series][point]
};

}  // namespace pfsc
