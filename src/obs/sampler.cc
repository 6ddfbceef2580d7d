#include "obs/sampler.h"

#include "obs/event.h"
#include "sim/simulation.h"

namespace bb::obs {

void Sampler::AddGauge(uint32_t node, const char* name,
                       std::function<double()> fn) {
  gauges_.push_back(GaugeSeries{node, name, std::move(fn), {}});
}

void Sampler::AddTag(uint32_t node, const char* name,
                     std::function<std::string()> fn) {
  tags_.push_back(TagSeries{node, name, std::move(fn), {}});
}

void Sampler::Schedule(sim::Simulation* sim, double end) {
  // t = start + k * period, computed from k so long runs do not drift.
  for (uint64_t k = 1;; ++k) {
    double t = config_.start + double(k) * config_.period;
    if (t > end + 1e-9) break;
    sim->At(t, [this, sim, t] { Tick(sim, t); });
  }
}

void Sampler::Tick(sim::Simulation* sim, double t) {
  ticks_.push_back(t);
  Hook* hook = sim->hook();
  for (GaugeSeries& g : gauges_) {
    double v = g.fn();
    g.values.push_back(v);
    if (hook != nullptr) {
      hook->Emit({.kind = EventKind::kCounter, .node = g.node, .t = t,
                  .name = g.name, .value = v});
    }
  }
  for (TagSeries& s : tags_) s.values.push_back(s.fn());
}

double Sampler::ValueAt(uint32_t node, const std::string& name,
                        size_t tick) const {
  for (const GaugeSeries& g : gauges_) {
    if (g.node == node && name == g.name) {
      return tick < g.values.size() ? g.values[tick] : -1;
    }
  }
  return -1;
}

util::Json Sampler::ToJson() const {
  util::Json doc = util::Json::Object();
  doc.Set("period", config_.period);
  util::Json ticks = util::Json::Array();
  for (double t : ticks_) ticks.Push(t);
  doc.Set("ticks", std::move(ticks));
  util::Json series = util::Json::Array();
  for (const GaugeSeries& g : gauges_) {
    util::Json s = util::Json::Object();
    s.Set("node", uint64_t(g.node));
    s.Set("name", g.name);
    util::Json values = util::Json::Array();
    for (double v : g.values) values.Push(v);
    s.Set("values", std::move(values));
    series.Push(std::move(s));
  }
  doc.Set("series", std::move(series));
  if (!tags_.empty()) {
    util::Json tags = util::Json::Array();
    for (const TagSeries& ts : tags_) {
      util::Json s = util::Json::Object();
      s.Set("node", uint64_t(ts.node));
      s.Set("name", ts.name);
      util::Json values = util::Json::Array();
      for (const std::string& v : ts.values) values.Push(v);
      s.Set("values", std::move(values));
      tags.Push(std::move(s));
    }
    doc.Set("tags", std::move(tags));
  }
  return doc;
}

}  // namespace bb::obs
