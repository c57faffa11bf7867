#ifndef DIGEST_COMMON_STRINGS_H_
#define DIGEST_COMMON_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

namespace digest {

/// Returns `s` with ASCII whitespace removed from both ends.
std::string_view StripWhitespace(std::string_view s);

/// Splits `s` on `delim`, trimming whitespace from each piece. Empty pieces
/// are kept (so "a,,b" yields {"a", "", "b"}).
std::vector<std::string> SplitAndTrim(std::string_view s, char delim);

/// Case-insensitive ASCII equality.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// Uppercases ASCII letters in `s`.
std::string ToUpperAscii(std::string_view s);

/// Appends `s` to `*out` as the body of a JSON string literal (without
/// the surrounding quotes): `"` and `\` are backslash-escaped, common
/// control characters use their short forms (\n, \t, \r, \b, \f), and
/// any other byte below 0x20 becomes \u00XX. Shared by every JSON
/// emitter (obs exporters, metrics registry) so labels and event fields
/// containing quotes/backslashes/newlines round-trip as valid JSON.
void AppendJsonEscaped(std::string* out, std::string_view s);

/// Returns the escaped body (AppendJsonEscaped into a fresh string).
std::string JsonEscape(std::string_view s);

/// Appends `v` printed as %.17g, which round-trips every double through
/// strtod. The one double format of every JSON emitter (traces, metrics,
/// summaries, checkpoints), so a value always serializes to the same
/// bytes.
void AppendDouble(std::string* out, double v);

/// Returns AppendDouble's text for `v`.
std::string FormatDouble(double v);

}  // namespace digest

#endif  // DIGEST_COMMON_STRINGS_H_
