// Small string helpers (formatting and joining) used across modules.
#pragma once

#include <string>
#include <vector>

namespace metaopt::util {

/// Joins `parts` with `sep`.
std::string join(const std::vector<std::string>& parts, const std::string& sep);

/// printf-style double formatting with trailing-zero trimming
/// ("12.5", "3", "0.0001").
std::string format_double(double value, int max_decimals = 6);

/// Splits on a single character delimiter; keeps empty fields.
std::vector<std::string> split(const std::string& s, char delim);

}  // namespace metaopt::util
