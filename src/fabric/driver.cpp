#include "fabric/driver.h"

#include <algorithm>
#include <deque>
#include <memory>
#include <optional>
#include <poll.h>
#include <stdexcept>
#include <vector>

#include "api/parallel.h"
#include "fabric/wire.h"
#include "verify/fuzzer.h"
#include "verify/shard.h"

namespace fle::fabric {

namespace {

using Clock = std::chrono::steady_clock;

/// One dispatchable unit: a contiguous slice of one scenario's trials.
struct Window {
  std::size_t scenario = 0;
  std::size_t offset = 0;  ///< global index of the first trial
  std::size_t count = 0;
  int attempts = 0;
  bool done = false;
  std::string last_error;
  std::optional<verify::ShardRow> row;
};

struct Peer {
  enum class State { kHandshake, kIdle, kBusy };

  Socket sock;
  State state = State::kHandshake;
  std::vector<std::uint8_t> in;
  std::vector<std::uint8_t> out;
  std::size_t window = SIZE_MAX;  ///< windows[] index when kBusy
  Clock::time_point deadline{};
  Clock::time_point last_heard{};
  std::string label;
  bool dead = false;  ///< marked for removal at the end of the iteration
};

constexpr std::size_t kNoWindow = SIZE_MAX;

}  // namespace

RemoteExecutor::RemoteExecutor(FabricOptions options)
    : options_(std::move(options)),
      listen_(listen_tcp(options_.bind_address, options_.port)) {}

std::vector<ScenarioResult> RemoteExecutor::run_sweep(const SweepSpec& sweep) {
  // ---- Plan: spec lines, windows, and locally-run empty scenarios. ----
  const std::size_t scenario_count = sweep.scenarios.size();
  std::vector<std::string> spec_lines;
  spec_lines.reserve(scenario_count);
  std::vector<std::optional<ScenarioResult>> merged(scenario_count);
  std::vector<Window> windows;
  std::vector<std::vector<std::size_t>> scenario_windows(scenario_count);

  for (std::size_t s = 0; s < scenario_count; ++s) {
    const ScenarioSpec& spec = sweep.scenarios[s];
    const std::string line = verify::format_spec(verify::shard_key_spec(spec));
    // Fail fast on anything that cannot travel the wire: the worker will
    // reconstruct the spec from this line, so it must round-trip here.
    try {
      (void)verify::parse_spec(line);
    } catch (const std::exception& error) {
      throw std::invalid_argument("fabric driver: scenario " + std::to_string(s) +
                                  " does not survive the wire encoding: " + error.what());
    }
    spec_lines.push_back(line);

    const TrialWindow range = scenario_trial_window(spec);
    if (range.count == 0) {
      // Nothing to distribute; run locally for the (validated, possibly
      // empty) result so the output vector still has one entry per spec.
      merged[s] = run_scenario(spec);
      continue;
    }
    const std::size_t per_window =
        options_.window_trials != 0
            ? options_.window_trials
            : executor_auto_chunk(range.count, options_.planned_workers);
    for (std::size_t first = range.first; first < range.first + range.count;) {
      const std::size_t count = std::min(per_window, range.first + range.count - first);
      scenario_windows[s].push_back(windows.size());
      windows.push_back(Window{s, first, count, 0, false, {}, std::nullopt});
      first += count;
    }
  }

  const std::uint64_t spec_digest = sweep_digest(spec_lines);
  const std::uint64_t build = build_digest();

  std::deque<std::size_t> pending;
  for (std::size_t w = 0; w < windows.size(); ++w) pending.push_back(w);
  std::size_t done_count = 0;

  std::vector<std::unique_ptr<Peer>> peers;
  std::uint64_t heartbeat_seq = 0;
  Clock::time_point last_heartbeat = Clock::now();
  Clock::time_point fleet_empty_since = Clock::now();
  bool fleet_empty_tracking = true;

  // ---- Per-peer helpers. ----
  const auto queue_bytes = [](Peer& peer, const std::vector<std::uint8_t>& bytes) {
    peer.out.insert(peer.out.end(), bytes.begin(), bytes.end());
  };
  const auto flush_peer = [](Peer& peer) {
    if (peer.out.empty() || peer.dead) return;
    try {
      const std::size_t sent =
          send_bytes(peer.sock.fd(), peer.out.data(), peer.out.size(), /*blocking=*/false);
      peer.out.erase(peer.out.begin(), peer.out.begin() + static_cast<std::ptrdiff_t>(sent));
    } catch (const std::exception&) {
      peer.dead = true;
    }
  };
  const auto drop_peer = [&](Peer& peer, const std::string& why) {
    if (peer.dead) return;
    peer.dead = true;
    if (peer.state == Peer::State::kBusy && peer.window != kNoWindow) {
      Window& window = windows[peer.window];
      if (!window.done) {
        window.last_error = why;
        pending.push_front(peer.window);  // re-issue ahead of fresh work
      }
    }
    peer.sock.close();  // closes the socket: a late duplicate cannot arrive
  };

  // Handles one parsed frame; returns false when the peer must be dropped.
  const auto handle_frame = [&](Peer& peer, const Frame& frame) -> bool {
    peer.last_heard = Clock::now();
    switch (frame.kind) {
      case MessageKind::kHello: {
        if (peer.state != Peer::State::kHandshake) return false;
        if (frame.hello.version != kWireVersion || frame.hello.build != build) {
          ErrorMsg reject;
          reject.message = "handshake rejected: worker wire v" +
                           std::to_string(frame.hello.version) + " build " +
                           std::to_string(frame.hello.build) + ", driver wire v" +
                           std::to_string(kWireVersion) + " build " + std::to_string(build) +
                           " — rebuild the fleet from one tree";
          queue_bytes(peer, encode_frame(reject));
          flush_peer(peer);
          return false;
        }
        peer.label = frame.hello.label;
        Welcome welcome;
        welcome.build = build;
        welcome.spec_digest = spec_digest;
        welcome.spec_lines = spec_lines;
        queue_bytes(peer, encode_frame(welcome));
        peer.state = Peer::State::kIdle;
        return true;
      }
      case MessageKind::kResult: {
        if (peer.state != Peer::State::kBusy || frame.result.window != peer.window) {
          return false;  // answer to nothing we asked — protocol error
        }
        Window& window = windows[peer.window];
        peer.state = Peer::State::kIdle;
        peer.window = kNoWindow;
        if (window.done) return true;  // late duplicate; first answer won
        try {
          verify::ShardRow row = verify::parse_shard_row(frame.result.row);
          if (row.spec_line != spec_lines[window.scenario] ||
              row.result.trial_offset != window.offset || row.result.trials != window.count) {
            throw std::invalid_argument("row does not answer the assigned window");
          }
          window.row = std::move(row);
          window.done = true;
          ++done_count;
          return true;
        } catch (const std::exception& error) {
          window.last_error = error.what();
          peer.state = Peer::State::kBusy;  // so drop_peer re-issues it
          peer.window = frame.result.window;
          return false;
        }
      }
      case MessageKind::kHeartbeat:
        return true;  // echo of our ping; last_heard already refreshed
      case MessageKind::kBye:
        return false;  // clean close; idle peers just leave the fleet
      case MessageKind::kError:
        if (peer.state == Peer::State::kBusy && peer.window != kNoWindow) {
          windows[peer.window].last_error = frame.error.message;
        }
        return false;
      default:
        return false;  // kWelcome/kAssign/kDrain are driver-to-worker only
    }
  };

  // ---- Event loop. ----
  while (done_count < windows.size()) {
    // Assign pending windows to idle peers.
    for (auto& peer : peers) {
      if (pending.empty()) break;
      if (peer->dead || peer->state != Peer::State::kIdle) continue;
      const std::size_t id = pending.front();
      Window& window = windows[id];
      if (window.attempts >= options_.max_attempts) {
        throw std::runtime_error(
            "fabric driver: window [" + std::to_string(window.offset) + ", " +
            std::to_string(window.offset + window.count) + ") of scenario " +
            std::to_string(window.scenario) + " failed after " +
            std::to_string(window.attempts) + " attempts" +
            (window.last_error.empty() ? "" : ": last error: " + window.last_error));
      }
      pending.pop_front();
      ++window.attempts;
      Assign assign;
      assign.window = id;
      assign.scenario = window.scenario;
      assign.trial_offset = window.offset;
      assign.trial_count = window.count;
      queue_bytes(*peer, encode_frame(assign));
      peer->state = Peer::State::kBusy;
      peer->window = id;
      // Exponential backoff: a window that keeps missing its deadline gets
      // progressively more time, in case it is genuinely slow rather than
      // its workers genuinely dead.
      peer->deadline = Clock::now() + backoff_deadline(options_.window_deadline, window.attempts);
    }

    // Heartbeat idle peers so silent TCP drops are noticed.
    const Clock::time_point now = Clock::now();
    if (now - last_heartbeat >= options_.heartbeat_interval) {
      last_heartbeat = now;
      Heartbeat ping{++heartbeat_seq};
      for (auto& peer : peers) {
        if (!peer->dead && peer->state == Peer::State::kIdle) {
          queue_bytes(*peer, encode_frame(ping));
        }
      }
    }

    // Poll the listener and every live peer.
    std::vector<pollfd> fds;
    fds.push_back(pollfd{listen_.socket.fd(), POLLIN, 0});
    std::vector<Peer*> polled;
    for (auto& peer : peers) {
      if (peer->dead) continue;
      flush_peer(*peer);
      short events = POLLIN;
      if (!peer->out.empty()) events |= POLLOUT;
      fds.push_back(pollfd{peer->sock.fd(), events, 0});
      polled.push_back(peer.get());
    }
    ::poll(fds.data(), fds.size(), 50);

    // Accept newcomers.
    if ((fds[0].revents & POLLIN) != 0) {
      for (;;) {
        Socket accepted = accept_tcp(listen_.socket.fd());
        if (!accepted.valid()) break;
        auto peer = std::make_unique<Peer>();
        peer->sock = std::move(accepted);
        peer->last_heard = Clock::now();
        peers.push_back(std::move(peer));
      }
    }

    // Service peer IO.
    for (std::size_t p = 0; p < polled.size(); ++p) {
      Peer& peer = *polled[p];
      const short revents = fds[p + 1].revents;
      if (peer.dead) continue;
      if ((revents & (POLLERR | POLLHUP | POLLNVAL)) != 0 && (revents & POLLIN) == 0) {
        drop_peer(peer, "worker '" + peer.label + "' connection lost");
        continue;
      }
      if ((revents & POLLOUT) != 0) flush_peer(peer);
      if ((revents & POLLIN) == 0) continue;
      if (!read_available(peer.sock.fd(), peer.in)) {
        drop_peer(peer, "worker '" + peer.label + "' disconnected");
        continue;
      }
      for (;;) {
        std::optional<FrameParse> parsed;
        try {
          parsed = try_parse_frame(peer.in);
        } catch (const std::exception& error) {
          drop_peer(peer, "worker '" + peer.label + "' sent a malformed frame: " + error.what());
          break;
        }
        if (!parsed) break;
        peer.in.erase(peer.in.begin(), peer.in.begin() + static_cast<std::ptrdiff_t>(parsed->consumed));
        if (!handle_frame(peer, parsed->frame)) {
          drop_peer(peer, "worker '" + peer.label + "' violated the protocol (" +
                              std::string(to_string(parsed->frame.kind)) + " frame)");
          break;
        }
      }
    }

    // Deadlines: busy peers that missed theirs, idle peers silent too long.
    const Clock::time_point after_io = Clock::now();
    for (auto& peer : peers) {
      if (peer->dead) continue;
      if (peer->state == Peer::State::kBusy && after_io > peer->deadline) {
        drop_peer(*peer, "worker '" + peer->label + "' missed the window deadline");
      } else if (peer->state != Peer::State::kBusy &&
                 after_io - peer->last_heard > options_.worker_grace) {
        drop_peer(*peer, "worker '" + peer->label + "' went silent");
      }
    }
    std::erase_if(peers, [](const std::unique_ptr<Peer>& peer) { return peer->dead; });

    // Total fleet loss: tolerate for worker_grace (covers startup too),
    // then fail the sweep with a clear diagnostic.
    if (peers.empty()) {
      if (!fleet_empty_tracking) {
        fleet_empty_tracking = true;
        fleet_empty_since = after_io;
      }
      if (after_io - fleet_empty_since > options_.worker_grace) {
        throw std::runtime_error(
            "fabric driver: all workers lost with " +
            std::to_string(windows.size() - done_count) +
            " window(s) outstanding (no worker connected for " +
            std::to_string(options_.worker_grace.count()) + "ms)");
      }
    } else {
      fleet_empty_tracking = false;
    }
  }

  // ---- Drain: tell survivors there is no more work, then close. ----
  const auto drain = encode_frame(MessageKind::kDrain);
  for (auto& peer : peers) {
    if (peer->dead) continue;
    queue_bytes(*peer, drain);
    flush_peer(*peer);
    peer->sock.close();
  }
  peers.clear();

  // ---- Merge: fold each scenario's windows in trial order. ----
  std::vector<ScenarioResult> results;
  results.reserve(scenario_count);
  for (std::size_t s = 0; s < scenario_count; ++s) {
    if (merged[s]) {
      results.push_back(std::move(*merged[s]));
      continue;
    }
    const std::vector<std::size_t>& ids = scenario_windows[s];
    std::optional<ScenarioResult> folded;
    for (const std::size_t id : ids) {
      const Window& window = windows[id];
      if (!folded) {
        folded = window.row->result;
      } else {
        folded->merge(window.row->result);
      }
    }
    const TrialWindow range = scenario_trial_window(sweep.scenarios[s]);
    if (folded->trial_offset != range.first || folded->trials != range.count) {
      throw std::runtime_error("fabric driver: merged scenario " + std::to_string(s) +
                               " covers [" + std::to_string(folded->trial_offset) + ", " +
                               std::to_string(folded->trial_offset + folded->trials) +
                               ") instead of its window");
    }
    results.push_back(std::move(*folded));
  }
  return results;
}

std::chrono::milliseconds backoff_deadline(std::chrono::milliseconds base, int attempts) {
  if (base.count() <= 0) return std::chrono::milliseconds{0};
  const int shift = std::clamp(attempts - 1, 0, 3);
  // steady_clock::duration is 64-bit nanoseconds; stay a factor 4 under
  // its range so `now() + deadline` cannot overflow downstream either.
  const auto max_safe =
      std::chrono::duration_cast<std::chrono::milliseconds>(Clock::duration::max()) / 4;
  if (base > max_safe / (1 << shift)) return max_safe;
  return base * (1 << shift);
}

std::string canonical_report(const SweepSpec& sweep, std::span<const ScenarioResult> results) {
  if (sweep.scenarios.size() != results.size()) {
    throw std::invalid_argument("canonical_report: " + std::to_string(sweep.scenarios.size()) +
                                " scenarios but " + std::to_string(results.size()) + " results");
  }
  std::string out;
  for (std::size_t s = 0; s < results.size(); ++s) {
    verify::ShardRow row;
    row.case_index = s;
    row.spec_line = verify::format_spec(verify::shard_key_spec(sweep.scenarios[s]));
    row.result = results[s];
    row.result.wall_seconds = 0.0;  // the one nondeterministic field
    out += verify::format_shard_row(row);
    out += '\n';
  }
  return out;
}

}  // namespace fle::fabric
