// SLO alert engine: declarative rules over sampled time series, evaluated
// on every sampler tick, with firing/resolved hysteresis. A rule compares a
// windowed aggregate of one series (rate, mean, max, min, or the latest
// sample) against a threshold; the condition must hold continuously for
// `for_duration` before the alert fires and stay clear for `clear_duration`
// before it resolves — the Prometheus "for:" discipline, which keeps a
// single bad sample from paging anyone. Transitions append to an alert log
// and fan out to listeners (the mgmt trap sender and the flight recorder).
//
// With a registry attached, each rule also registers read-through gauges
// ("alert.<rule>.state", ".value", ".transitions"), so alert state shows up
// in the Prometheus exposition and — via ExportMetricsToMib — in an SNMP
// walk for free.
#ifndef SRC_OBS_ALERTS_H_
#define SRC_OBS_ALERTS_H_

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/time_types.h"
#include "src/obs/timeseries.h"

namespace espk {

enum class AlertAggregate : uint8_t {
  kLatest = 0,   // Newest sample.
  kRatePerSec,   // Counter growth per second across the window.
  kMean,         // Mean of in-window samples.
  kMax,          // Max of in-window samples.
  kMin,          // Min of in-window samples.
};

enum class AlertComparison : uint8_t {
  kAbove = 0,  // observed > threshold breaches.
  kBelow,      // observed < threshold breaches.
};

// inactive -> (condition) -> pending -> (for_duration held) -> firing
// firing -> (condition gone) -> clearing -> (clear_duration held) -> inactive
enum class AlertState : uint8_t {
  kInactive = 0,
  kPending,
  kFiring,
  kClearing,
};

std::string_view AlertStateName(AlertState state);

struct SloRule {
  std::string name;       // e.g. "speaker.0.deadline_miss_rate".
  std::string series;     // Sampler series the rule reads.
  AlertAggregate aggregate = AlertAggregate::kLatest;
  AlertComparison comparison = AlertComparison::kAbove;
  double threshold = 0.0;
  SimDuration window = Seconds(1);
  // Hysteresis: breach must hold this long to fire / clear this long to
  // resolve. Zero means the first evaluation decides.
  SimDuration for_duration = 0;
  SimDuration clear_duration = 0;
  // Low-watermark arming: a kBelow rule over a signal that starts at zero
  // (jitter-buffer occupancy before the stream begins) would fire at boot.
  // With requires_arming, the rule is ignored until the signal has been on
  // the healthy side of the threshold at least once.
  bool requires_arming = false;
  std::string help;
};

struct AlertTransition {
  std::string rule;
  bool firing = false;  // true = fired, false = resolved.
  double observed = 0.0;
  double threshold = 0.0;
  SimTime at = 0;
};

class AlertEngine {
 public:
  // With a registry, AddRule publishes per-rule state gauges (see header
  // comment). The engine must outlive reads of those gauges.
  explicit AlertEngine(TimeSeriesSampler* sampler,
                       MetricsRegistry* registry = nullptr);

  AlertEngine(const AlertEngine&) = delete;
  AlertEngine& operator=(const AlertEngine&) = delete;

  // Rules are evaluated (and exported) in registration order. A rule whose
  // series does not exist yet is evaluated against an empty window until
  // the series appears.
  void AddRule(SloRule rule);

  // Evaluates every rule at `now`; normally invoked as a sampler tick
  // listener (see AttachToSampler), but tests may drive it directly.
  void Evaluate(SimTime now);

  // Registers Evaluate as a tick listener so rules run after each sampling
  // pass. Call once, after the sampler exists.
  void AttachToSampler();

  size_t rule_count() const { return rules_.size(); }
  const std::vector<SloRule>& rules() const { return rules_; }

  // kInactive for unknown rule names.
  AlertState StateOf(const std::string& rule_name) const;
  // Latest evaluated value for the rule, 0 before the first evaluation.
  double ObservedOf(const std::string& rule_name) const;
  // Fire+resolve transitions the rule has made; 0 for unknown names.
  uint64_t TransitionsOf(const std::string& rule_name) const;
  // Rules currently in kFiring or kClearing (breached, not yet resolved).
  std::vector<std::string> ActiveAlerts() const;

  // Every fire/resolve transition, in sim-time order.
  const std::vector<AlertTransition>& log() const { return log_; }
  uint64_t fired_total() const { return fired_total_; }
  uint64_t resolved_total() const { return resolved_total_; }

  // Listeners run on every transition, in registration order, after the
  // transition is appended to the log.
  void AddListener(std::function<void(const AlertTransition&)> listener);

 private:
  struct RuleState {
    AlertState state = AlertState::kInactive;
    bool armed = false;
    SimTime pending_since = 0;
    SimTime clearing_since = 0;
    double observed = 0.0;
    uint64_t transitions = 0;
  };

  double Aggregate(const SloRule& rule, SimTime now) const;
  void Transition(size_t index, bool firing, SimTime now);
  int FindRule(const std::string& rule_name) const;

  TimeSeriesSampler* sampler_;
  MetricsRegistry* registry_;
  std::vector<SloRule> rules_;
  std::vector<RuleState> states_;
  std::vector<AlertTransition> log_;
  std::vector<std::function<void(const AlertTransition&)>> listeners_;
  uint64_t fired_total_ = 0;
  uint64_t resolved_total_ = 0;
};

}  // namespace espk

#endif  // SRC_OBS_ALERTS_H_
