#include "exp/table.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "obs/json.hpp"

namespace spms::exp {

void Table::add_row(std::vector<std::string> cells) {
  if (cells.size() != headers_.size()) {
    throw std::invalid_argument{"Table: row width does not match header"};
  }
  rows_.push_back(std::move(cells));
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) width[c] = std::max(width[c], row[c].size());
  }
  const auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << std::left << std::setw(static_cast<int>(width[c]) + 2) << row[c];
    }
    os << '\n';
  };
  emit(headers_);
  std::size_t total = 0;
  for (const auto w : width) total += w + 2;
  os << std::string(total, '-') << '\n';
  for (const auto& row : rows_) emit(row);
}

void Table::print_csv(std::ostream& os) const {
  const auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c > 0) os << ',';
      os << row[c];
    }
    os << '\n';
  };
  emit(headers_);
  for (const auto& row : rows_) emit(row);
}

namespace {

// Matches the JSON number grammar exactly; strtod alone also accepts "nan",
// "inf", hex floats, "+1", "0123", "1." and ".5", all invalid bare JSON.
bool is_number(const std::string& s) {
  const char* p = s.c_str();
  const auto digits = [&] {
    const char* start = p;
    while (*p >= '0' && *p <= '9') ++p;
    return p != start;
  };
  if (*p == '-') ++p;
  if (*p == '0') {
    ++p;  // a leading zero may not be followed by more digits
  } else if (!digits()) {
    return false;
  }
  if (*p == '.') {
    ++p;
    if (!digits()) return false;
  }
  if (*p == 'e' || *p == 'E') {
    ++p;
    if (*p == '+' || *p == '-') ++p;
    if (!digits()) return false;
  }
  return *p == '\0';
}

}  // namespace

void Table::print_json(std::ostream& os) const {
  // The spaced one-row-per-line layout is the table's own; the shared writer
  // spells the strings.
  std::string line;
  os << "[\n";
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    line = "  {";
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      if (c > 0) line += ", ";
      obs::json::append_string(line, headers_[c]);
      line += ": ";
      if (is_number(rows_[r][c])) {
        line += rows_[r][c];
      } else {
        obs::json::append_string(line, rows_[r][c]);
      }
    }
    line += r + 1 < rows_.size() ? "},\n" : "}\n";
    os << line;
  }
  os << "]\n";
}

bool Table::column_is_numeric(const std::string& column) const {
  const auto it = std::find(headers_.begin(), headers_.end(), column);
  if (it == headers_.end()) return false;
  const auto c = static_cast<std::size_t>(it - headers_.begin());
  for (const auto& row : rows_) {
    if (!is_number(row[c])) return false;
  }
  return true;
}

void Table::print_gnuplot(std::ostream& os, const std::string& title, const std::string& x_col,
                          const std::string& y_col) const {
  const auto col_of = [&](const std::string& name) {
    const auto it = std::find(headers_.begin(), headers_.end(), name);
    if (it == headers_.end()) {
      throw std::invalid_argument{"Table::print_gnuplot: no column '" + name + "'"};
    }
    return static_cast<std::size_t>(it - headers_.begin());
  };
  const std::size_t xc = col_of(x_col);
  const std::size_t yc = col_of(y_col);
  // A non-numeric x (e.g. the variant of a budget sweep) plots as a
  // category axis: row index as abscissa, the cell text as the tic label.
  const bool categorical_x = !column_is_numeric(x_col);

  // A series is one distinct combination of the non-numeric columns
  // (protocol, variant, …), in first-appearance order.
  std::vector<std::size_t> key_cols;
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    if (c != xc && c != yc && !column_is_numeric(headers_[c])) key_cols.push_back(c);
  }
  std::vector<std::string> series_names;                 // first-appearance order
  std::vector<std::vector<std::size_t>> series_rows;     // parallel to series_names
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    std::string key;
    for (const auto c : key_cols) {
      if (!key.empty()) key += '/';
      key += rows_[r][c];
    }
    if (key.empty()) key = "all";
    const auto it = std::find(series_names.begin(), series_names.end(), key);
    if (it == series_names.end()) {
      series_names.push_back(key);
      series_rows.emplace_back();
      series_rows.back().push_back(r);
    } else {
      series_rows[static_cast<std::size_t>(it - series_names.begin())].push_back(r);
    }
  }

  os << "# generated by run_experiment_cli --format gnuplot; pipe into gnuplot\n";
  os << "# columns:";
  for (const auto& h : headers_) os << ' ' << h;
  os << "\n\n";
  if (rows_.empty()) {
    // Reachable via e.g. a shard slice beyond the point count; a bare
    // `plot \` with no elements would be a gnuplot syntax error, so emit a
    // valid no-op script instead.
    os << "# no data rows: nothing to plot\n";
    return;
  }
  for (std::size_t s = 0; s < series_names.size(); ++s) {
    os << "$series" << s << " << EOD\n#";
    for (const auto& h : headers_) os << ' ' << h;
    os << '\n';
    for (const auto r : series_rows[s]) {
      for (std::size_t c = 0; c < rows_[r].size(); ++c) {
        if (c > 0) os << '\t';
        // Non-numeric cells are quoted so embedded spaces keep the column
        // count stable for gnuplot's whitespace splitting.
        if (is_number(rows_[r][c])) {
          os << rows_[r][c];
        } else {
          os << '"' << rows_[r][c] << '"';
        }
      }
      os << '\n';
    }
    os << "EOD\n";
  }
  os << "\nset title \"" << title << "\"\n";
  os << "set xlabel \"" << x_col << "\"\n";
  os << "set ylabel \"" << y_col << "\"\n";
  os << "set key outside right\n";
  os << "plot \\\n";
  for (std::size_t s = 0; s < series_names.size(); ++s) {
    os << "  $series" << s << " using ";
    if (categorical_x) {
      os << "0:" << (yc + 1) << ":xtic(" << (xc + 1) << ')';
    } else {
      os << (xc + 1) << ':' << (yc + 1);
    }
    os << " with linespoints title \"" << series_names[s] << '"';
    os << (s + 1 < series_names.size() ? ", \\\n" : "\n");
  }
}

std::string fmt(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

std::string fmt_pct(double ratio, int precision) {
  return fmt(ratio * 100.0, precision) + "%";
}

}  // namespace spms::exp
