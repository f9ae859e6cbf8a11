#include "engine/engine.hpp"

#include <cerrno>
#include <climits>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

namespace issrtl::engine {

namespace {

/// Strict full-string parse of an ISSRTL_* environment value: plain decimal
/// digits only (no sign, no whitespace, no trailing junk — strtoull happily
/// wraps "-4" to 18446744073709551612 and stops at the 'x' of "4x", both of
/// which would silently run a campaign with a mangled configuration), and
/// the result must fit `max_value`. Throws std::invalid_argument naming the
/// variable otherwise.
u64 parse_env_u64(const char* name, const char* value, u64 max_value) {
  const auto reject = [&](const char* why) {
    throw std::invalid_argument(std::string(name) + ": invalid value '" +
                                value + "' (" + why + ")");
  };
  if (value[0] < '0' || value[0] > '9') {
    reject("expected an unsigned decimal integer");
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(value, &end, 10);
  if (*end != '\0') reject("trailing junk after the number");
  if (errno == ERANGE || parsed > max_value) {
    reject("value out of range");
  }
  return static_cast<u64>(parsed);
}

/// Apply `apply(value)` when the variable is set and non-empty; unset/empty
/// leaves the EngineOptions field untouched. The one shared getenv gate for
/// every knob in options_from_env.
template <class Apply>
void with_env(const char* name, Apply&& apply) {
  if (const char* v = std::getenv(name); v != nullptr && *v) apply(v);
}

/// Strict 0/1 flag; any other value is rejected, by name.
bool env_flag(const char* name, const char* value) {
  return parse_env_u64(name, value, 1) != 0;
}

/// "auto" -> `auto_value`, else a strict decimal in [0, max_value].
u64 env_u64_or_auto(const char* name, const char* value, u64 max_value,
                    u64 auto_value) {
  if (std::strcmp(value, "auto") == 0) return auto_value;
  return parse_env_u64(name, value, max_value);
}

}  // namespace

FailSiteSpec parse_fail_sites(const std::string& spec) {
  FailSiteSpec out;
  const auto reject = [&](const char* why) {
    throw std::invalid_argument("ISSRTL_FAIL_SITE: invalid value '" + spec +
                                "' (" + why + ")");
  };
  std::size_t at = 0;
  while (at < spec.size()) {
    std::size_t end = spec.find(',', at);
    if (end == std::string::npos) end = spec.size();
    const std::string part = spec.substr(at, end - at);
    at = end + 1;
    std::string digits = part;
    FailSiteSpec::Entry entry;
    if (const std::size_t colon = part.find(':'); colon != std::string::npos) {
      digits = part.substr(0, colon);
      bool have_stage = false;
      std::size_t tag_at = colon + 1;
      for (;;) {
        std::size_t tag_end = part.find(':', tag_at);
        if (tag_end == std::string::npos) tag_end = part.size();
        const std::string tag = part.substr(tag_at, tag_end - tag_at);
        if (tag == "once") {
          entry.once = true;
        } else {
          FailStage stage = FailStage::kArm;
          if (tag == "restore") {
            stage = FailStage::kRestore;
          } else if (tag == "arm") {
            stage = FailStage::kArm;
          } else if (tag == "step") {
            stage = FailStage::kStep;
          } else if (tag == "classify") {
            stage = FailStage::kClassify;
          } else {
            reject(
                "expected <site> with optional :once and one of "
                ":restore/:arm/:step/:classify");
          }
          if (have_stage) reject("more than one stage tag");
          have_stage = true;
          entry.stage = stage;
        }
        if (tag_end == part.size()) break;
        tag_at = tag_end + 1;
      }
    }
    if (digits.empty()) reject("empty site index");
    for (const char c : digits) {
      if (c < '0' || c > '9') reject("site index must be decimal digits");
    }
    errno = 0;
    char* parse_end = nullptr;
    const unsigned long long v = std::strtoull(digits.c_str(), &parse_end, 10);
    if (errno == ERANGE || parse_end != digits.c_str() + digits.size()) {
      reject("site index out of range");
    }
    out.sites.emplace_back(static_cast<std::size_t>(v), entry);
  }
  if (!spec.empty() && spec.back() == ',') reject("trailing comma");
  return out;
}

std::atomic<bool>& signal_stop_flag() {
  static std::atomic<bool> flag{false};
  return flag;
}

namespace {

void issrtl_signal_stop_handler(int signum) {
  // Lock-free store only (async-signal-safe). Re-arming the default
  // disposition makes the *second* signal terminate the process, so a
  // stuck drain can still be killed interactively.
  signal_stop_flag().store(true, std::memory_order_relaxed);
  std::signal(signum, SIG_DFL);
}

}  // namespace

void install_signal_stop() {
  std::signal(SIGINT, issrtl_signal_stop_handler);
  std::signal(SIGTERM, issrtl_signal_stop_handler);
}

unsigned resolve_threads(unsigned requested, std::size_t sites) {
  unsigned threads =
      requested != 0 ? requested : std::thread::hardware_concurrency();
  if (threads == 0) threads = 1;
  if (sites != 0 && threads > sites) {
    threads = static_cast<unsigned>(sites);
  }
  return threads;
}

Xoshiro256 shard_stream(u64 seed, unsigned shard) {
  // Two splitmix64 draws decorrelate (seed, shard) pairs before the state
  // expansion inside Xoshiro256's constructor.
  u64 sm = seed ^ (0x9E37'79B9'7F4A'7C15ull * (static_cast<u64>(shard) + 1));
  const u64 a = splitmix64(sm);
  const u64 b = splitmix64(sm);
  return Xoshiro256(a ^ (b << 1));
}

EngineOptions options_from_env(EngineOptions base) {
  with_env("ISSRTL_THREADS", [&](const char* v) {
    base.threads =
        static_cast<unsigned>(parse_env_u64("ISSRTL_THREADS", v, UINT_MAX));
  });
  with_env("ISSRTL_CKPT_STRIDE", [&](const char* v) {
    base.ladder_stride =
        env_u64_or_auto("ISSRTL_CKPT_STRIDE", v, ~0ull, kLadderStrideAuto);
  });
  with_env("ISSRTL_CKPT_MB", [&](const char* v) {
    base.ladder_max_bytes = static_cast<std::size_t>(parse_env_u64(
                                "ISSRTL_CKPT_MB", v, SIZE_MAX >> 20))
                            << 20;
  });
  with_env("ISSRTL_JOURNAL", [&](const char* v) { base.journal_dir = v; });
  with_env("ISSRTL_RESUME", [&](const char* v) {
    base.resume = env_flag("ISSRTL_RESUME", v);
  });
  with_env("ISSRTL_ISS_FAST", [&](const char* v) {
    base.iss_fast_path = env_flag("ISSRTL_ISS_FAST", v);
  });
  with_env("ISSRTL_DEADLINE_MS", [&](const char* v) {
    base.deadline_ms = parse_env_u64("ISSRTL_DEADLINE_MS", v, ~0ull);
  });
  with_env("ISSRTL_FAIL_SITE", [&](const char* v) {
    parse_fail_sites(v);  // validate eagerly: a typo fails here, by name
    base.fail_sites = v;
  });
  return base;
}

std::function<void(const EngineProgress&)> stderr_progress() {
  return [](const EngineProgress& p) {
    std::fprintf(stderr, "\r%zu/%zu injections", p.completed, p.total);
    if (p.completed == p.total) std::fprintf(stderr, "\n");
  };
}

}  // namespace issrtl::engine
