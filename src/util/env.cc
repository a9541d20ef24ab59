#include "util/env.h"

#include <cstdlib>
#include <map>
#include <mutex>
#include <string>

#include "util/logging.h"
#include "util/string_util.h"

namespace rudolf {

std::optional<int64_t> EnvInt(const char* name, int64_t lo, int64_t hi) {
  const char* env = std::getenv(name);
  if (env == nullptr) return std::nullopt;
  Result<int64_t> v = ParseInt64(env);
  if (v.ok() && *v >= lo && *v <= hi) return *v;
  // Knobs are re-read on every resolve (each evaluator resolves its width),
  // so warn only when the value differs from the last one warned about for
  // this name. Leaked: resolves may run during static teardown.
  static std::mutex* mu = new std::mutex;
  static std::map<std::string, std::string>* warned =
      new std::map<std::string, std::string>;
  std::lock_guard<std::mutex> lock(*mu);
  auto [it, inserted] = warned->try_emplace(name, env);
  if (inserted || it->second != env) {
    it->second = env;
    RUDOLF_LOG(Warning) << "ignoring " << name << "=\"" << env
                        << "\": expected an integer in [" << lo << ", " << hi
                        << "]";
  }
  return std::nullopt;
}

}  // namespace rudolf
