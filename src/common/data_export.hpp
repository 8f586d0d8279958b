// Plot-data export for the figure-regeneration benches.
//
// When the environment variable EPIAGG_DATA_DIR is set, every bench
// additionally writes its series as whitespace-separated .dat files
// (gnuplot/matplotlib-ready) so the paper's figures can be re-plotted
// directly from a run. Without the variable the writer is inert, keeping
// benches dependency- and side-effect-free by default.
#pragma once

#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "common/contract.hpp"

namespace epiagg {

/// Column-oriented table serialized as "# header" + whitespace rows.
class DataTable {
public:
  /// Declares the column names (written as a '#'-prefixed header line).
  explicit DataTable(std::vector<std::string> columns);

  /// Appends one row. Precondition: one value per declared column.
  void add_row(const std::vector<double>& row);

  [[nodiscard]] std::size_t row_count() const noexcept { return rows_.size(); }
  [[nodiscard]] std::size_t column_count() const noexcept { return columns_.size(); }
  [[nodiscard]] const std::vector<std::string>& columns() const noexcept {
    return columns_;
  }
  [[nodiscard]] const std::vector<std::vector<double>>& rows() const noexcept {
    return rows_;
  }

  /// Serializes the table ("# col1 col2\n1.0 2.0\n..."). Fixed %.10g format.
  [[nodiscard]] std::string to_string() const;

  /// Writes to `path`; returns false (without throwing) on I/O failure so a
  /// read-only data dir never kills a bench run.
  bool write_file(const std::string& path) const;

private:
  std::vector<std::string> columns_;
  std::vector<std::vector<double>> rows_;
};

/// The configured data directory (EPIAGG_DATA_DIR), if any.
[[nodiscard]] std::optional<std::string> data_export_dir();

/// Writes `table` as <EPIAGG_DATA_DIR>/<name>.dat when exporting is enabled;
/// no-op otherwise. Returns true if a file was written.
bool export_table(const DataTable& table, const std::string& name);

}  // namespace epiagg
