// Small string helpers shared by the XML toolkit, SQL front end, and the
// Fortran namelist parser. All functions are pure and allocation-conscious.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace hxrc::util {

/// Strips ASCII whitespace from both ends.
std::string_view trim(std::string_view s) noexcept;

/// Splits on a single delimiter character; empty fields are preserved.
std::vector<std::string_view> split(std::string_view s, char delim);

/// ASCII lowercase copy.
std::string to_lower(std::string_view s);

bool starts_with(std::string_view s, std::string_view prefix) noexcept;

/// Strict integer / floating point parses (whole string must match).
std::optional<std::int64_t> parse_int(std::string_view s) noexcept;
std::optional<double> parse_double(std::string_view s) noexcept;

/// True if the string is entirely ASCII whitespace (or empty).
bool is_blank(std::string_view s) noexcept;

}  // namespace hxrc::util
