#include "comm/channel.hpp"

#include <array>
#include <atomic>
#include <string>

#include "obs/obs.hpp"

namespace ccmx::comm {

namespace {

const obs::Counter g_messages("comm.messages");
const obs::Counter g_rounds("comm.rounds");
const obs::Counter g_bits_agent0("comm.bits.agent0");
const obs::Counter g_bits_agent1("comm.bits.agent1");

/// Per-round bit totals, summed across channels.  The paper's protocols
/// are constant-round (send-half is 1, fingerprint ≤ 3), so eight
/// dedicated counters cover every protocol in the repo; deeper rounds
/// fold into comm.bits.round_overflow so the total is still conserved.
/// The trace reader cross-checks these against the JSONL trace
/// (check_trace_against_report).
constexpr std::size_t kRoundCounters = 8;
const std::array<obs::Counter, kRoundCounters> g_bits_by_round{
    obs::Counter("comm.bits.round1"), obs::Counter("comm.bits.round2"),
    obs::Counter("comm.bits.round3"), obs::Counter("comm.bits.round4"),
    obs::Counter("comm.bits.round5"), obs::Counter("comm.bits.round6"),
    obs::Counter("comm.bits.round7"), obs::Counter("comm.bits.round8")};
const obs::Counter g_bits_round_overflow("comm.bits.round_overflow");

std::uint64_t next_trace_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

const BitVec& Channel::send(Agent from, BitVec payload) {
  const std::size_t payload_bits = payload.size();
  bits_[static_cast<std::size_t>(from)] += payload_bits;
  const bool new_round =
      transcript_.empty() || transcript_.back().from != from;
  if (new_round) ++rounds_;
  transcript_.push_back(Message{from, std::move(payload)});
  if (obs::enabled()) {
    g_messages.add();
    if (new_round) g_rounds.add();
    (from == Agent::kZero ? g_bits_agent0 : g_bits_agent1).add(payload_bits);
    (rounds_ <= kRoundCounters ? g_bits_by_round[rounds_ - 1]
                               : g_bits_round_overflow)
        .add(payload_bits);
    if (obs::event_sink_open()) {
      if (trace_id_ == 0) trace_id_ = next_trace_id();
      obs::emit_event(
          "{\"ev\":\"send\",\"ch\":" + std::to_string(trace_id_) +
          // Agent is a two-value enum class; its underlying value (0/1)
          // IS the wire format.  ccmx-lint: allow(narrow)
          ",\"from\":" + std::to_string(static_cast<unsigned>(from)) +
          ",\"bits\":" + std::to_string(payload_bits) +
          ",\"round\":" + std::to_string(rounds_) +
          ",\"msg\":" + std::to_string(transcript_.size()) +
          ",\"span\":" + std::to_string(obs::current_span_id()) +
          ",\"tid\":" + std::to_string(obs::thread_id()) +
          ",\"t_us\":" + std::to_string(obs::now_us()) + "}");
    }
  }
  return transcript_.back().payload;
}

ProtocolOutcome execute(const Protocol& protocol, const BitVec& input,
                        const Partition& partition) {
  obs::ScopedSpan span("comm.execute");
  span.arg("protocol", protocol.name());
  const AgentView agent0(Agent::kZero, input, partition);
  const AgentView agent1(Agent::kOne, input, partition);
  Channel channel;
  ProtocolOutcome outcome;
  outcome.answer = protocol.run(agent0, agent1, channel);
  outcome.bits = channel.bits_sent();
  outcome.rounds = channel.rounds();
  outcome.messages = channel.messages();
  span.arg("bits", static_cast<std::uint64_t>(outcome.bits));
  span.arg("rounds", static_cast<std::uint64_t>(outcome.rounds));
  return outcome;
}

}  // namespace ccmx::comm
