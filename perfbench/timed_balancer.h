// lb::LoadBalancer decorator that times the calls lb::Scenario makes into a
// balancer before forwarding them. Untraced it only counts calls (an integer
// bump per call); traced it also times every call, keeping sampled spans in
// the run's SpanLog.
#pragma once

#include <utility>

#include "bench_util.h"
#include "lb/load_balancer.h"

namespace perfbench {

/// Span op ids of the lb layer.
enum LbOp : std::uint16_t { kSyn, kFin, kProbe, kUpdate, kSelfCheck };

class TimedBalancer : public silkroad::lb::LoadBalancer {
 public:
  /// `spans` null: untraced (counts only).
  TimedBalancer(silkroad::lb::LoadBalancer& inner, SpanLog* spans)
      : inner_(inner), spans_(spans) {}

  std::string name() const override { return inner_.name(); }
  void add_vip(const silkroad::net::Endpoint& vip,
               const std::vector<silkroad::net::Endpoint>& dips) override {
    inner_.add_vip(vip, dips);
  }

  void request_update(const silkroad::workload::DipUpdate& update) override {
    if (spans_ == nullptr) {
      ++update_.calls;
      inner_.request_update(update);
      return;
    }
    const auto t0 = Clock::now();
    inner_.request_update(update);
    finish(Layer::kLb, kUpdate, t0, update_, true);
  }

  void handle_dip_failure(const silkroad::net::Endpoint& vip,
                          const silkroad::net::Endpoint& dip,
                          bool resilient_in_place) override {
    inner_.handle_dip_failure(vip, dip, resilient_in_place);
  }

  silkroad::lb::PacketResult process_packet(
      const silkroad::net::Packet& packet) override {
    const LbOp op = packet.syn ? kSyn : packet.fin ? kFin : kProbe;
    CallTotals& totals = packets_[op];
    silkroad::lb::PacketResult result;
    if (spans_ == nullptr) {
      ++totals.calls;
      result = inner_.process_packet(packet);
    } else {
      const auto t0 = Clock::now();
      result = inner_.process_packet(packet);
      finish(Layer::kLb, op, t0, totals, false);
    }
    if (!result.dip) ++no_dip_;
    return result;
  }

  void set_mapping_risk_callback(MappingRiskCallback cb) override {
    inner_.set_mapping_risk_callback(
        [this, cb = std::move(cb)](const silkroad::net::Endpoint& vip) {
          ++risk_events_;
          cb(vip);
        });
  }

  bool vip_at_slb(const silkroad::net::Endpoint& vip) const override {
    return inner_.vip_at_slb(vip);
  }

  void self_check() const override {
    if (spans_ == nullptr) {
      ++self_check_.calls;
      inner_.self_check();
      return;
    }
    const auto t0 = Clock::now();
    inner_.self_check();
    finish(Layer::kCheck, kSelfCheck, t0, self_check_, true);
  }

  const CallTotals& packets(LbOp op) const { return packets_[op]; }
  const CallTotals& updates() const { return update_; }
  const CallTotals& self_checks() const { return self_check_; }
  std::uint64_t risk_events() const { return risk_events_; }
  /// Packets the balancer answered without a DIP.
  std::uint64_t no_dip() const { return no_dip_; }
  /// Wall time spent inside the decorated calls (traced runs only).
  std::uint64_t inside_ns() const {
    std::uint64_t ns = update_.ns + self_check_.ns;
    for (const CallTotals& t : packets_) ns += t.ns;
    return ns;
  }

 private:
  void finish(Layer layer, LbOp op, Clock::time_point t0, CallTotals& totals,
              bool always) const {
    const auto t1 = Clock::now();
    const std::uint64_t dur = ns_between(t0, t1);
    totals.add(dur);
    spans_->record(layer, op, t0, dur, always);
  }

  silkroad::lb::LoadBalancer& inner_;
  SpanLog* spans_;
  CallTotals packets_[3];
  CallTotals update_;
  mutable CallTotals self_check_;
  std::uint64_t risk_events_ = 0;
  std::uint64_t no_dip_ = 0;
};

}  // namespace perfbench
