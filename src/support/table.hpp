// Aligned plain-text table printer used by the benchmark harnesses to emit
// the paper-shaped result rows, with lossless CSV emission/parsing for the
// sweep checkpoint/merge pipeline and JSON output for plotting.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace wsf::support {

/// Collects rows of string/number cells and renders them either as an
/// aligned ASCII table (human-readable bench output), RFC-4180 CSV, or
/// JSON. An empty-string cell means "no value" (e.g. the stderr of a
/// single-replicate measurement): it renders as an em dash in the aligned
/// table, an empty CSV field, and JSON null.
class Table {
 public:
  /// Creates a table with the given column headers.
  explicit Table(std::vector<std::string> headers);

  /// Starts a new row; subsequent add() calls fill it left to right.
  Table& row();

  Table& add(const std::string& cell);
  Table& add(const char* cell);
  Table& add(std::int64_t v);
  Table& add(std::uint64_t v);
  Table& add(int v) { return add(static_cast<std::int64_t>(v)); }
  Table& add(unsigned v) { return add(static_cast<std::uint64_t>(v)); }
  /// Doubles are rendered with up to 4 significant decimals, trimming
  /// trailing zeros, so ratio columns stay readable. NaN becomes the
  /// missing-value cell (see class comment).
  Table& add(double v);

  /// Appends a whole row of pre-rendered cells (at most one per column).
  Table& add_row(std::vector<std::string> cells);

  std::size_t num_rows() const { return rows_.size(); }
  const std::vector<std::string>& headers() const { return headers_; }
  const std::vector<std::vector<std::string>>& rows() const { return rows_; }

  /// Index of the named column (first match). Throws wsf::CheckError when
  /// the column does not exist — callers that want optional columns should
  /// test has_column() first.
  std::size_t column_index(const std::string& name) const;
  bool has_column(const std::string& name) const;

  /// The cell at (row, col). Trailing cells a short row never stored read
  /// as the empty (missing) cell, exactly as every renderer treats them.
  /// Throws on an out-of-range row or column.
  const std::string& cell(std::size_t row, std::size_t col) const;

  /// The cell parsed as a double: NaN for a missing/empty cell, the value
  /// for a fully-numeric cell, and wsf::CheckError for anything else (a
  /// policy name in a column an analysis op tried to aggregate, say).
  double number(std::size_t row, std::size_t col) const;

  /// Renders the aligned table (with a separator under the header).
  std::string to_string() const;
  /// Renders RFC-4180 CSV: cells containing commas, quotes, or newlines are
  /// quoted with embedded quotes doubled, so to_csv/from_csv round-trip
  /// losslessly.
  std::string to_csv() const;
  /// Parses to_csv() output (or any RFC-4180 CSV; CRLF line ends and a
  /// missing final newline are accepted, empty lines are skipped) back into
  /// a Table. The first record is the header row. Rows may have fewer cells
  /// than the header but not more; a row with zero cells does not
  /// round-trip (it has no record representation). Throws wsf::CheckError
  /// on malformed input (e.g. an unterminated quoted cell).
  static Table from_csv(const std::string& csv);
  /// Renders a JSON array with one object per row, keyed by the headers.
  /// Cells that are plain decimal numbers are emitted unquoted, missing
  /// cells as null; everything else becomes an escaped JSON string.
  std::string to_json() const;
  /// Parses to_json() output (an array of flat objects whose values are
  /// strings, numbers, booleans, or null) back into a Table. Column order
  /// is the first object's key order and every object must repeat it;
  /// numeric values keep their literal spelling, so
  /// from_json(to_json(t)).to_json() == t.to_json(). null becomes the
  /// missing (empty) cell. Throws wsf::CheckError on malformed input.
  static Table from_json(const std::string& json);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double like Table::add(double): compact fixed notation.
std::string format_double(double v);

/// RFC-4180 encoding of one CSV field: returns the cell quoted (embedded
/// quotes doubled) when it contains a comma, quote, or CR/LF, unchanged
/// otherwise. Table::to_csv and the sweep checkpoint writer share this so
/// their bytes agree.
std::string csv_field(const std::string& cell);

/// One CSV record from pre-rendered cells, csv_field-encoded and
/// newline-terminated.
std::string csv_line(const std::vector<std::string>& cells);

/// Parses a cell as a double if it is fully numeric (optional sign,
/// digits, optional fraction/exponent — the grammar to_json treats as a
/// number). Returns false for empty or non-numeric cells, leaving *out
/// unchanged.
bool cell_to_number(const std::string& cell, double* out);

}  // namespace wsf::support
