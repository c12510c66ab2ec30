#pragma once

#include <ostream>
#include <string>
#include <vector>

/// \file table.hpp
/// Aligned-table, CSV, JSON and gnuplot emitters for the rows the CLI and
/// the bench binaries print.

namespace spms::exp {

/// Column-aligned text table.
class Table {
 public:
  explicit Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

  /// Appends a row; must match the header count.
  void add_row(std::vector<std::string> cells);

  /// Prints with padded columns, a header underline, and a trailing newline.
  void print(std::ostream& os) const;

  /// Prints as comma-separated values (quotes are the caller's problem —
  /// cells here are numbers and plain words).
  void print_csv(std::ostream& os) const;

  /// Prints as a JSON array of objects keyed by the headers.  Cells that
  /// parse fully as numbers are emitted bare; everything else is a string.
  void print_json(std::ostream& os) const;

  /// Emits a self-contained gnuplot script: one inline datablock per series
  /// plus a `plot` command of `y_col` against `x_col` — figure sweeps render
  /// with `run_experiment_cli --format gnuplot ... | gnuplot` and no
  /// hand-written scripts.  A series is one distinct combination of the
  /// non-numeric columns (protocol, variant, …); a non-numeric `x_col`
  /// (e.g. "variant" for a budget sweep) plots as a category axis via
  /// xtic labels; every column rides along in the datablocks with a
  /// commented header, so editing the script to plot a different metric is
  /// a one-line change.  A rowless table emits a valid no-op script.
  /// \throws std::invalid_argument when x_col/y_col is not a header.
  void print_gnuplot(std::ostream& os, const std::string& title, const std::string& x_col,
                     const std::string& y_col) const;

  [[nodiscard]] std::size_t rows() const { return rows_.size(); }
  [[nodiscard]] const std::vector<std::string>& headers() const { return headers_; }

  /// True when every row's cell in `column` parses as a bare JSON number —
  /// the same test the JSON emitter applies (used to pick plottable axes).
  [[nodiscard]] bool column_is_numeric(const std::string& column) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Fixed-precision formatting helper ("12.345").
[[nodiscard]] std::string fmt(double v, int precision = 3);

/// Percentage formatting helper ("12.3%").
[[nodiscard]] std::string fmt_pct(double ratio, int precision = 1);

}  // namespace spms::exp
