#include "common/data_export.hpp"

#include <cstdio>
#include <cstdlib>

namespace epiagg {

DataTable::DataTable(std::vector<std::string> columns)
    : columns_(std::move(columns)) {
  EPIAGG_EXPECTS(!columns_.empty(), "a data table needs at least one column");
  for (const auto& name : columns_) {
    EPIAGG_EXPECTS(!name.empty(), "column names must be non-empty");
    EPIAGG_EXPECTS(name.find(' ') == std::string::npos &&
                       name.find('\n') == std::string::npos,
                   "column names must not contain whitespace");
  }
}

void DataTable::add_row(const std::vector<double>& row) {
  EPIAGG_EXPECTS(row.size() == columns_.size(),
                 "row width must match the declared columns");
  rows_.push_back(row);
}

std::string DataTable::to_string() const {
  std::string out = "#";
  for (const auto& name : columns_) {
    out += ' ';
    out += name;
  }
  out += '\n';
  char buffer[64];
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      std::snprintf(buffer, sizeof(buffer), "%.10g", row[c]);
      if (c > 0) out += ' ';
      out += buffer;
    }
    out += '\n';
  }
  return out;
}

bool DataTable::write_file(const std::string& path) const {
  std::ofstream file(path);
  if (!file) return false;
  file << to_string();
  return static_cast<bool>(file);
}

std::optional<std::string> data_export_dir() {
  const char* dir = std::getenv("EPIAGG_DATA_DIR");
  if (dir == nullptr || dir[0] == '\0') return std::nullopt;
  return std::string(dir);
}

bool export_table(const DataTable& table, const std::string& name) {
  const auto dir = data_export_dir();
  if (!dir.has_value()) return false;
  const bool ok = table.write_file(*dir + "/" + name + ".dat");
  if (ok) {
    std::printf("[data] wrote %s/%s.dat (%zu rows)\n", dir->c_str(), name.c_str(),
                table.row_count());
  } else {
    std::fprintf(stderr, "[data] FAILED to write %s/%s.dat\n", dir->c_str(),
                 name.c_str());
  }
  return ok;
}

}  // namespace epiagg
