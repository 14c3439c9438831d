#include "support/table.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "support/check.hpp"

namespace wsf::support {

std::string format_double(double v) {
  if (std::isnan(v)) return "nan";
  if (std::isinf(v)) return v > 0 ? "inf" : "-inf";
  // Integers print without a decimal point; otherwise 4 decimals, trimmed.
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", v);
    return buf;
  }
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.4f", v);
  std::string s = buf;
  while (!s.empty() && s.back() == '0') s.pop_back();
  if (!s.empty() && s.back() == '.') s.pop_back();
  return s;
}

std::string csv_field(const std::string& cell) {
  if (cell.find_first_of(",\"\n\r") == std::string::npos) return cell;
  std::string quoted;
  quoted.reserve(cell.size() + 2);
  quoted += '"';
  for (const char ch : cell) {
    if (ch == '"') quoted += '"';
    quoted += ch;
  }
  quoted += '"';
  return quoted;
}

std::string csv_line(const std::vector<std::string>& cells) {
  // A lone empty field would render as a blank line, which the parser
  // (correctly) skips; quote it so the record round-trips.
  if (cells.size() == 1 && cells[0].empty()) return "\"\"\n";
  std::string line;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    if (c) line += ',';
    line += csv_field(cells[c]);
  }
  line += '\n';
  return line;
}

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  WSF_REQUIRE(!headers_.empty(), "a table needs at least one column");
}

Table& Table::row() {
  rows_.emplace_back();
  rows_.back().reserve(headers_.size());
  return *this;
}

Table& Table::add(const std::string& cell) {
  WSF_REQUIRE(!rows_.empty(), "call row() before add()");
  WSF_REQUIRE(rows_.back().size() < headers_.size(),
              "row already has " << headers_.size() << " cells");
  rows_.back().push_back(cell);
  return *this;
}

Table& Table::add(const char* cell) { return add(std::string(cell)); }

Table& Table::add(std::int64_t v) { return add(std::to_string(v)); }
Table& Table::add(std::uint64_t v) { return add(std::to_string(v)); }
Table& Table::add(double v) {
  // NaN marks a value that does not exist (a single-sample stderr, say)
  // rather than a computed result, so it becomes the missing cell.
  if (std::isnan(v)) return add(std::string());
  return add(format_double(v));
}

Table& Table::add_row(std::vector<std::string> cells) {
  WSF_REQUIRE(cells.size() <= headers_.size(),
              "row has " << cells.size() << " cells but the table has "
                         << headers_.size() << " columns");
  rows_.push_back(std::move(cells));
  return *this;
}

std::size_t Table::column_index(const std::string& name) const {
  for (std::size_t c = 0; c < headers_.size(); ++c)
    if (headers_[c] == name) return c;
  std::string all;
  for (const auto& h : headers_) all += (all.empty() ? "" : ", ") + h;
  WSF_REQUIRE(false, "no column '" << name << "' (columns: " << all << ")");
  return 0;  // unreachable
}

bool Table::has_column(const std::string& name) const {
  for (const auto& h : headers_)
    if (h == name) return true;
  return false;
}

const std::string& Table::cell(std::size_t row, std::size_t col) const {
  WSF_REQUIRE(row < rows_.size(), "row " << row << " out of range ("
                                         << rows_.size() << " rows)");
  WSF_REQUIRE(col < headers_.size(), "column " << col << " out of range ("
                                               << headers_.size()
                                               << " columns)");
  static const std::string kMissing;
  return col < rows_[row].size() ? rows_[row][col] : kMissing;
}

double Table::number(std::size_t row, std::size_t col) const {
  const std::string& c = cell(row, col);
  if (c.empty()) return std::numeric_limits<double>::quiet_NaN();
  double v = 0.0;
  WSF_REQUIRE(cell_to_number(c, &v),
              "cell '" << c << "' in column '" << headers_[col]
                       << "' is not a number");
  return v;
}

namespace {

// The aligned rendering of a cell: missing values print as an em dash.
// Returns the replacement text and its display width (the dash is one
// column wide but three UTF-8 bytes, so byte length cannot be used).
std::pair<std::string, std::size_t> display_cell(const std::string& cell) {
  if (cell.empty()) return {"—", 1};
  return {cell, cell.size()};
}

}  // namespace

std::string Table::to_string() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c)
    widths[c] = headers_[c].size();
  for (const auto& r : rows_)
    for (std::size_t c = 0; c < r.size(); ++c)
      widths[c] = std::max(widths[c], display_cell(r[c]).second);

  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      // Absent trailing cells of a short row are as missing as explicit
      // empty ones; render both the same way.
      const auto [text, width] =
          display_cell(c < cells.size() ? cells[c] : std::string());
      os << "  ";
      // Right-align everything; numeric columns dominate bench output.
      os << std::string(widths[c] - width, ' ') << text;
    }
    os << "\n";
  };
  emit_row(headers_);
  std::size_t total = 0;
  for (auto w : widths) total += w + 2;
  os << "  " << std::string(total > 2 ? total - 2 : 0, '-') << "\n";
  for (const auto& r : rows_) emit_row(r);
  return os.str();
}

std::string Table::to_csv() const {
  std::string out = csv_line(headers_);
  for (const auto& r : rows_) out += csv_line(r);
  return out;
}

namespace {

// RFC-4180 splitter: quoted fields may contain commas, doubled quotes, and
// newlines; records end at LF, CRLF, or a bare CR; empty lines are skipped.
std::vector<std::vector<std::string>> parse_csv_records(
    const std::string& text) {
  std::vector<std::vector<std::string>> records;
  std::size_t i = 0;
  const std::size_t n = text.size();
  while (i < n) {
    if (text[i] == '\n' || text[i] == '\r') {
      ++i;  // empty line (or the LF of a CRLF already consumed below)
      continue;
    }
    std::vector<std::string> fields;
    bool record_done = false;
    while (!record_done) {
      std::string field;
      if (i < n && text[i] == '"') {
        ++i;
        bool closed = false;
        while (i < n) {
          if (text[i] == '"') {
            if (i + 1 < n && text[i + 1] == '"') {
              field += '"';
              i += 2;
            } else {
              ++i;
              closed = true;
              break;
            }
          } else {
            field += text[i++];
          }
        }
        WSF_REQUIRE(closed, "CSV: unterminated quoted field in record "
                                << records.size() + 1);
        WSF_REQUIRE(i >= n || text[i] == ',' || text[i] == '\n' ||
                        text[i] == '\r',
                    "CSV: stray character after closing quote in record "
                        << records.size() + 1);
      } else {
        while (i < n && text[i] != ',' && text[i] != '\n' && text[i] != '\r')
          field += text[i++];
      }
      fields.push_back(std::move(field));
      if (i >= n) {
        record_done = true;
      } else if (text[i] == ',') {
        ++i;
      } else {  // '\n' or '\r'
        if (text[i] == '\r' && i + 1 < n && text[i + 1] == '\n') ++i;
        ++i;
        record_done = true;
      }
    }
    records.push_back(std::move(fields));
  }
  return records;
}

}  // namespace

Table Table::from_csv(const std::string& csv) {
  std::vector<std::vector<std::string>> records = parse_csv_records(csv);
  WSF_REQUIRE(!records.empty(), "CSV: no header record");
  Table table(std::move(records[0]));
  for (std::size_t r = 1; r < records.size(); ++r) {
    WSF_REQUIRE(records[r].size() <= table.headers_.size(),
                "CSV: record " << r + 1 << " has " << records[r].size()
                               << " fields but the header has "
                               << table.headers_.size());
    table.rows_.push_back(std::move(records[r]));
  }
  return table;
}

namespace {

// JSON numbers: -?digits[.digits][e[+-]digits] — exactly what
// format_double / std::to_string emit; "nan"/"inf" fall through to strings.
bool is_json_number(const std::string& s) {
  std::size_t i = 0;
  if (i < s.size() && s[i] == '-') ++i;
  const std::size_t int_begin = i;
  while (i < s.size() && s[i] >= '0' && s[i] <= '9') ++i;
  if (i == int_begin) return false;
  if (i < s.size() && s[i] == '.') {
    ++i;
    const std::size_t frac_begin = i;
    while (i < s.size() && s[i] >= '0' && s[i] <= '9') ++i;
    if (i == frac_begin) return false;
  }
  if (i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
    ++i;
    if (i < s.size() && (s[i] == '+' || s[i] == '-')) ++i;
    const std::size_t exp_begin = i;
    while (i < s.size() && s[i] >= '0' && s[i] <= '9') ++i;
    if (i == exp_begin) return false;
  }
  return i == s.size();
}

void append_json_string(std::ostringstream& os, const std::string& s) {
  os << '"';
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      os << '\\' << ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", ch);
      os << buf;
    } else {
      os << ch;
    }
  }
  os << '"';
}

}  // namespace

bool cell_to_number(const std::string& cell, double* out) {
  if (!is_json_number(cell)) return false;
  char* end = nullptr;
  const double v = std::strtod(cell.c_str(), &end);
  if (end != cell.c_str() + cell.size()) return false;
  *out = v;
  return true;
}

std::string Table::to_json() const {
  std::ostringstream os;
  os << "[\n";
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    os << "  {";
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      if (c) os << ", ";
      append_json_string(os, headers_[c]);
      os << ": ";
      const std::string& cell =
          c < rows_[r].size() ? rows_[r][c] : std::string();
      if (cell.empty())
        os << "null";
      else if (is_json_number(cell))
        os << cell;
      else
        append_json_string(os, cell);
    }
    os << (r + 1 < rows_.size() ? "},\n" : "}\n");
  }
  os << "]\n";
  return os.str();
}

namespace {

// Minimal JSON reader for the array-of-flat-objects shape to_json emits.
// Values are captured as table cells: strings unescaped, numbers kept as
// their literal spelling (so numeric formatting round-trips exactly),
// null as the missing cell, booleans as "true"/"false".
class JsonReader {
 public:
  explicit JsonReader(const std::string& text) : text_(text) {}

  void skip_ws() {
    while (i_ < text_.size() &&
           (text_[i_] == ' ' || text_[i_] == '\t' || text_[i_] == '\n' ||
            text_[i_] == '\r'))
      ++i_;
  }

  bool eat(char ch) {
    skip_ws();
    if (i_ < text_.size() && text_[i_] == ch) {
      ++i_;
      return true;
    }
    return false;
  }

  void expect(char ch) {
    WSF_REQUIRE(eat(ch), "JSON: expected '" << ch << "' at offset " << i_);
  }

  bool at_end() {
    skip_ws();
    return i_ >= text_.size();
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      WSF_REQUIRE(i_ < text_.size(), "JSON: unterminated string");
      const char ch = text_[i_++];
      if (ch == '"') return out;
      if (ch != '\\') {
        out += ch;
        continue;
      }
      WSF_REQUIRE(i_ < text_.size(), "JSON: unterminated escape");
      const char esc = text_[i_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          WSF_REQUIRE(i_ + 4 <= text_.size(), "JSON: truncated \\u escape");
          unsigned code = 0;
          for (int k = 0; k < 4; ++k) {
            const char h = text_[i_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else
              WSF_REQUIRE(false, "JSON: bad \\u escape digit '" << h << "'");
          }
          // to_json only escapes control characters (< 0x20); encode the
          // general case as UTF-8 anyway so foreign files parse.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          WSF_REQUIRE(false, "JSON: unknown escape '\\" << esc << "'");
      }
    }
  }

  // A scalar value rendered as a table cell.
  std::string parse_value() {
    skip_ws();
    WSF_REQUIRE(i_ < text_.size(), "JSON: value expected");
    const char ch = text_[i_];
    if (ch == '"') return parse_string();
    if (eat_word("null")) return std::string();
    if (eat_word("true")) return "true";
    if (eat_word("false")) return "false";
    // Number: capture the literal token text verbatim.
    const std::size_t begin = i_;
    if (i_ < text_.size() && (text_[i_] == '-' || text_[i_] == '+')) ++i_;
    while (i_ < text_.size() &&
           ((text_[i_] >= '0' && text_[i_] <= '9') || text_[i_] == '.' ||
            text_[i_] == 'e' || text_[i_] == 'E' || text_[i_] == '+' ||
            text_[i_] == '-'))
      ++i_;
    const std::string token = text_.substr(begin, i_ - begin);
    double ignored = 0.0;
    WSF_REQUIRE(cell_to_number(token, &ignored),
                "JSON: expected a value at offset " << begin);
    return token;
  }

 private:
  bool eat_word(const char* word) {
    const std::size_t len = std::string(word).size();
    if (text_.compare(i_, len, word) != 0) return false;
    i_ += len;
    return true;
  }

  const std::string& text_;
  std::size_t i_ = 0;
};

}  // namespace

Table Table::from_json(const std::string& json) {
  JsonReader reader(json);
  reader.expect('[');
  std::vector<std::string> headers;
  std::vector<std::vector<std::string>> rows;
  if (!reader.eat(']')) {
    do {
      reader.expect('{');
      std::vector<std::string> keys;
      std::vector<std::string> cells;
      if (!reader.eat('}')) {
        do {
          keys.push_back(reader.parse_string());
          reader.expect(':');
          cells.push_back(reader.parse_value());
        } while (reader.eat(','));
        reader.expect('}');
      }
      if (rows.empty() && headers.empty()) {
        headers = keys;
      } else {
        WSF_REQUIRE(keys == headers,
                    "JSON: row " << rows.size() + 1 << " keys differ from "
                                 << "the first row's");
      }
      rows.push_back(std::move(cells));
    } while (reader.eat(','));
    reader.expect(']');
  }
  WSF_REQUIRE(reader.at_end(), "JSON: trailing content after the array");
  WSF_REQUIRE(!headers.empty(),
              "JSON: no rows (a table cannot recover its columns from an "
              "empty array)");
  Table table(std::move(headers));
  for (auto& cells : rows) table.rows_.push_back(std::move(cells));
  return table;
}

}  // namespace wsf::support
