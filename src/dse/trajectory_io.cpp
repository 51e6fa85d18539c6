#include "dse/trajectory_io.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "dse/codec.hpp"
#include "dse/fault.hpp"
#include "util/csv.hpp"

namespace ace::dse {

void save_trajectory(const Trajectory& trajectory, const std::string& path) {
  if (trajectory.configs.size() != trajectory.values.size())
    throw std::invalid_argument("save_trajectory: ragged trajectory");
  if (trajectory.configs.empty())
    throw std::invalid_argument("save_trajectory: empty trajectory");

  const std::size_t dims = trajectory.configs.front().size();
  util::CsvWriter csv(path);
  std::vector<std::string> header;
  header.reserve(dims + 1);
  for (std::size_t i = 0; i < dims; ++i) {
    // Built up with += rather than `"e" + std::to_string(i)`: the rvalue
    // operator+ path trips a GCC 12 -Wrestrict false positive inside
    // libstdc++ string::insert under -O2, which -Werror turns fatal.
    std::string column = "e";
    column += std::to_string(i);
    header.push_back(std::move(column));
  }
  header.push_back("lambda");
  csv.write_row(header);

  for (std::size_t r = 0; r < trajectory.size(); ++r) {
    if (trajectory.configs[r].size() != dims)
      throw std::invalid_argument("save_trajectory: inconsistent dimensions");
    std::vector<std::string> row;
    row.reserve(dims + 1);
    for (int v : trajectory.configs[r]) row.push_back(std::to_string(v));
    std::ostringstream value;
    value.precision(17);
    value << trajectory.values[r];
    row.push_back(value.str());
    csv.write_row(row);
  }
  // Integrity trailer: without a row count a file cut off at a row
  // boundary loads as a silently shorter trajectory.
  std::string trailer = "#end rows=";
  trailer += std::to_string(trajectory.size());
  csv.write_row({trailer});
}

Trajectory load_trajectory(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_trajectory: cannot open " + path);

  std::string line;
  if (!std::getline(in, line))
    throw PayloadError(FaultCode::kTruncatedPayload,
                       "load_trajectory: missing header");
  std::size_t columns = 1;
  for (char ch : line)
    if (ch == ',') ++columns;
  if (columns < 2)
    throw PayloadError(FaultCode::kCorruptPayload,
                       "load_trajectory: header needs >= 2 columns");
  const std::size_t dims = columns - 1;

  Trajectory trajectory;
  bool saw_trailer = false;
  std::size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    if (line.front() == '#') {
      // Directive line. "#end rows=N" is the integrity trailer; data after
      // it means the file was concatenated or corrupted.
      if (line.rfind("#end rows=", 0) == 0) {
        const std::optional<std::uint64_t> n =
            parse_unsigned(std::string_view(line).substr(10));
        if (!n)
          throw PayloadError(FaultCode::kCorruptPayload,
                             "load_trajectory: bad trailer at line " +
                                 std::to_string(line_no));
        if (*n != trajectory.size())
          throw PayloadError(
              FaultCode::kTruncatedPayload,
              "load_trajectory: trailer says " + std::to_string(*n) +
                  " rows, file holds " + std::to_string(trajectory.size()));
        saw_trailer = true;
        continue;
      }
      continue;  // Unknown directive/comment: skip.
    }
    if (saw_trailer)
      throw PayloadError(FaultCode::kCorruptPayload,
                         "load_trajectory: data after trailer at line " +
                             std::to_string(line_no));
    std::stringstream row(line);
    std::string cell;
    Config config;
    config.reserve(dims);
    std::vector<std::string> cells;
    while (std::getline(row, cell, ',')) cells.push_back(cell);
    if (cells.size() != columns)
      throw PayloadError(FaultCode::kTruncatedPayload,
                         "load_trajectory: ragged row at line " +
                             std::to_string(line_no));
    const auto bad_number = [line_no] {
      return PayloadError(FaultCode::kCorruptPayload,
                          "load_trajectory: bad number at line " +
                              std::to_string(line_no));
    };
    for (std::size_t i = 0; i < dims; ++i) {
      const std::optional<int> coordinate = parse_int(cells[i]);
      if (!coordinate) throw bad_number();
      config.push_back(*coordinate);
    }
    const std::optional<double> value = parse_double(cells[dims]);
    if (!value) throw bad_number();
    trajectory.values.push_back(*value);
    trajectory.configs.push_back(std::move(config));
  }
  if (!saw_trailer)
    throw PayloadError(FaultCode::kTruncatedPayload,
                       "load_trajectory: missing '#end rows=N' trailer — "
                       "file is truncated or predates the integrity format");
  return trajectory;
}

}  // namespace ace::dse
