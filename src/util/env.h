// Integer environment knobs. Every RUDOLF_* knob that takes a number reads
// it through EnvInt, so they all share one rule: a whole decimal integer
// inside the knob's range is used; anything else is ignored with a warning.

#ifndef RUDOLF_UTIL_ENV_H_
#define RUDOLF_UTIL_ENV_H_

#include <cstdint>
#include <optional>

namespace rudolf {

/// The value of environment variable `name` if it is set to a whole decimal
/// integer in [lo, hi] (surrounding whitespace ignored, as ParseInt64 does).
/// Unset: nullopt. Set to anything else (empty, trailing characters, out of
/// range): nullopt, so the caller keeps its own value. A warning is logged
/// unless the same value was the last one warned about for `name`.
std::optional<int64_t> EnvInt(const char* name, int64_t lo, int64_t hi);

}  // namespace rudolf

#endif  // RUDOLF_UTIL_ENV_H_
