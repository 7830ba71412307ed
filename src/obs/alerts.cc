#include "src/obs/alerts.h"

#include "src/base/logging.h"

namespace espk {

std::string_view AlertStateName(AlertState state) {
  switch (state) {
    case AlertState::kInactive:
      return "inactive";
    case AlertState::kPending:
      return "pending";
    case AlertState::kFiring:
      return "firing";
    case AlertState::kClearing:
      return "clearing";
  }
  return "?";
}

AlertEngine::AlertEngine(TimeSeriesSampler* sampler,
                         MetricsRegistry* registry)
    : sampler_(sampler), registry_(registry) {}

void AlertEngine::AddRule(SloRule rule) {
  const size_t index = rules_.size();
  rules_.push_back(std::move(rule));
  states_.push_back(RuleState{});
  if (registry_ != nullptr) {
    const std::string prefix = "alert." + rules_[index].name;
    // The engine and its vectors only grow, so index-based readers stay
    // valid for the registry's lifetime.
    registry_->GetGauge(
        prefix + ".state",
        [this, index] {
          return static_cast<double>(states_[index].state);
        },
        "SLO alert state (0 inactive, 1 pending, 2 firing, 3 clearing) — " +
            rules_[index].help);
    registry_->GetGauge(
        prefix + ".value",
        [this, index] { return states_[index].observed; },
        "Latest evaluated value for SLO rule " + rules_[index].name);
    registry_->GetGauge(
        prefix + ".transitions",
        [this, index] {
          return static_cast<double>(states_[index].transitions);
        },
        "Fire+resolve transitions for SLO rule " + rules_[index].name);
  }
}

double AlertEngine::Aggregate(const SloRule& rule, SimTime now) const {
  const TimeSeries* series = sampler_->FindSeries(rule.series);
  if (series == nullptr) {
    return 0.0;
  }
  switch (rule.aggregate) {
    case AlertAggregate::kLatest:
      return series->Latest().value_or(0.0);
    case AlertAggregate::kRatePerSec:
      return series->WindowRatePerSec(now, rule.window);
    case AlertAggregate::kMean:
      return series->WindowMean(now, rule.window);
    case AlertAggregate::kMax:
      return series->WindowMax(now, rule.window);
    case AlertAggregate::kMin:
      return series->WindowMin(now, rule.window);
  }
  return 0.0;
}

void AlertEngine::Transition(size_t index, bool firing, SimTime now) {
  const SloRule& rule = rules_[index];
  RuleState& state = states_[index];
  ++state.transitions;
  if (firing) {
    ++fired_total_;
  } else {
    ++resolved_total_;
  }
  log_.push_back(AlertTransition{rule.name, firing, state.observed,
                                 rule.threshold, now});
  ESPK_LOG(kInfo) << "alert " << rule.name
                  << (firing ? " FIRING" : " resolved") << " (observed "
                  << state.observed << " vs " << rule.threshold << ")";
  const AlertTransition& transition = log_.back();
  for (const auto& listener : listeners_) {
    listener(transition);
  }
}

void AlertEngine::Evaluate(SimTime now) {
  for (size_t i = 0; i < rules_.size(); ++i) {
    const SloRule& rule = rules_[i];
    RuleState& state = states_[i];
    const double observed = Aggregate(rule, now);
    state.observed = observed;
    bool breached = rule.comparison == AlertComparison::kAbove
                        ? observed > rule.threshold
                        : observed < rule.threshold;
    if (rule.requires_arming) {
      if (!state.armed) {
        if (!breached) {
          state.armed = true;  // Seen healthy once; rule is live from now.
        }
        continue;
      }
    }
    switch (state.state) {
      case AlertState::kInactive:
        if (breached) {
          state.pending_since = now;
          state.state = AlertState::kPending;
          if (rule.for_duration <= 0) {  // No hold time: fire on the spot.
            state.state = AlertState::kFiring;
            Transition(i, /*firing=*/true, now);
          }
        }
        break;
      case AlertState::kPending:
        if (!breached) {
          state.state = AlertState::kInactive;
        } else if (now - state.pending_since >= rule.for_duration) {
          state.state = AlertState::kFiring;
          Transition(i, /*firing=*/true, now);
        }
        break;
      case AlertState::kFiring:
        if (!breached) {
          state.clearing_since = now;
          state.state = AlertState::kClearing;
          if (rule.clear_duration <= 0) {  // No hold time: resolve now.
            state.state = AlertState::kInactive;
            Transition(i, /*firing=*/false, now);
          }
        }
        break;
      case AlertState::kClearing:
        if (breached) {
          state.state = AlertState::kFiring;  // Relapse; no new transition.
        } else if (now - state.clearing_since >= rule.clear_duration) {
          state.state = AlertState::kInactive;
          Transition(i, /*firing=*/false, now);
        }
        break;
    }
  }
}

void AlertEngine::AttachToSampler() {
  sampler_->AddTickListener([this](SimTime now) { Evaluate(now); });
}

int AlertEngine::FindRule(const std::string& rule_name) const {
  for (size_t i = 0; i < rules_.size(); ++i) {
    if (rules_[i].name == rule_name) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

AlertState AlertEngine::StateOf(const std::string& rule_name) const {
  int index = FindRule(rule_name);
  return index < 0 ? AlertState::kInactive
                   : states_[static_cast<size_t>(index)].state;
}

double AlertEngine::ObservedOf(const std::string& rule_name) const {
  int index = FindRule(rule_name);
  return index < 0 ? 0.0 : states_[static_cast<size_t>(index)].observed;
}

uint64_t AlertEngine::TransitionsOf(const std::string& rule_name) const {
  int index = FindRule(rule_name);
  return index < 0 ? 0 : states_[static_cast<size_t>(index)].transitions;
}

std::vector<std::string> AlertEngine::ActiveAlerts() const {
  std::vector<std::string> active;
  for (size_t i = 0; i < rules_.size(); ++i) {
    if (states_[i].state == AlertState::kFiring ||
        states_[i].state == AlertState::kClearing) {
      active.push_back(rules_[i].name);
    }
  }
  return active;
}

void AlertEngine::AddListener(
    std::function<void(const AlertTransition&)> listener) {
  listeners_.push_back(std::move(listener));
}

}  // namespace espk
