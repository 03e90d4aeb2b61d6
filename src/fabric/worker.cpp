#include "fabric/worker.h"

#include <cstdio>
#include <stdexcept>
#include <thread>
#include <unistd.h>
#include <vector>

#include "fabric/socket.h"
#include "fabric/wire.h"
#include "verify/fuzzer.h"
#include "verify/shard.h"

namespace fle::fabric {

namespace {

void log_line(const WorkerOptions& options, const std::string& text) {
  std::fprintf(stderr, "fle_worker%s%s: %s\n", options.label.empty() ? "" : " ",
               options.label.c_str(), text.c_str());
}

/// A frame that is valid length-prefix-wise but garbage inside — what the
/// kCorruptFrame fault puts on the wire instead of its result.
std::vector<std::uint8_t> corrupt_frame() {
  std::vector<std::uint8_t> out;
  leb128_put(out, 5);
  out.push_back(0xee);  // unknown MessageKind
  out.push_back(0xde);
  out.push_back(0xad);
  out.push_back(0xbe);
  out.push_back(0xef);
  return out;
}

}  // namespace

int run_worker(const WorkerOptions& options) {
  try {
    Socket sock = connect_tcp(options.host, options.port, options.connect_timeout);
    set_read_timeout(sock.fd(), options.read_timeout);
    std::vector<std::uint8_t> buffer;

    const auto send_frame = [&sock](const std::vector<std::uint8_t>& bytes) {
      send_bytes(sock.fd(), bytes.data(), bytes.size(), /*blocking=*/true);
    };

    Hello hello;
    hello.build = build_digest();
    hello.label = options.label;
    send_frame(encode_frame(hello));

    std::optional<Frame> welcome = read_frame(sock.fd(), buffer);
    if (!welcome) {
      log_line(options, "driver closed the connection before the handshake finished");
      return 1;
    }
    if (welcome->kind == MessageKind::kError) {
      log_line(options, "driver rejected us: " + welcome->error.message);
      return 2;
    }
    if (welcome->kind == MessageKind::kDrain) {
      // The sweep finished before our hello was serviced: clean no-work run.
      send_frame(encode_frame(MessageKind::kBye));
      return 0;
    }
    if (welcome->kind != MessageKind::kWelcome) {
      log_line(options, std::string("expected welcome, got '") + to_string(welcome->kind) + "'");
      return 1;
    }
    if (welcome->welcome.version != kWireVersion ||
        welcome->welcome.build != hello.build) {
      log_line(options, "driver build/version mismatch (driver wire v" +
                            std::to_string(welcome->welcome.version) + ")");
      return 2;
    }
    if (sweep_digest(welcome->welcome.spec_lines) != welcome->welcome.spec_digest) {
      log_line(options, "welcome spec digest does not match its spec lines");
      return 1;
    }
    // Parse every spec up front: a worker that cannot execute the sweep
    // should fail at handshake time, not mid-window.
    std::vector<ScenarioSpec> specs;
    specs.reserve(welcome->welcome.spec_lines.size());
    for (std::size_t s = 0; s < welcome->welcome.spec_lines.size(); ++s) {
      try {
        specs.push_back(verify::parse_spec(welcome->welcome.spec_lines[s]));
      } catch (const std::exception& error) {
        log_line(options, "cannot parse sweep spec " + std::to_string(s) + ": " + error.what());
        return 2;
      }
    }

    std::uint64_t assignments = 0;
    for (;;) {
      std::optional<Frame> frame = read_frame(sock.fd(), buffer);
      if (!frame) return 1;  // driver vanished without a drain
      switch (frame->kind) {
        case MessageKind::kHeartbeat:
          send_frame(encode_frame(Heartbeat{frame->heartbeat.seq}));
          continue;
        case MessageKind::kDrain:
          send_frame(encode_frame(MessageKind::kBye));
          return 0;
        case MessageKind::kError:
          log_line(options, "driver error: " + frame->error.message);
          return 2;
        case MessageKind::kAssign:
          break;
        default:
          log_line(options, std::string("unexpected '") + to_string(frame->kind) + "' frame");
          return 1;
      }

      const Assign& assign = frame->assign;
      if (assign.scenario >= specs.size() || assign.trial_count == 0) {
        log_line(options, "assignment names scenario " + std::to_string(assign.scenario) +
                              " of " + std::to_string(specs.size()));
        return 1;
      }
      ++assignments;

      // Scheduled misbehaviour, by assignment ordinal (fault.h).
      std::chrono::milliseconds slow_by{0};
      if (const auto fault = options.faults.action_at(assignments)) {
        const std::chrono::milliseconds param =
            fault->millis != 0 ? std::chrono::milliseconds(fault->millis)
                               : options.default_hang_ms;
        switch (fault->kind) {
          case FaultKind::kKill:
            log_line(options, "fault: kill at assignment " + std::to_string(assignments));
            if (options.exit_on_kill) ::_exit(3);
            return 3;
          case FaultKind::kHang:
            log_line(options, "fault: hang " + std::to_string(param.count()) +
                                  "ms at assignment " + std::to_string(assignments));
            std::this_thread::sleep_for(param);
            break;  // then answer normally — the driver has moved on
          case FaultKind::kCorruptFrame:
            log_line(options, "fault: corrupt frame at assignment " + std::to_string(assignments));
            send_frame(corrupt_frame());
            continue;  // the driver will drop us; next read sees EOF
          case FaultKind::kSlowLink:
            slow_by = param;
            break;
        }
      }

      ScenarioSpec spec = specs[assign.scenario];
      spec.trial_offset = static_cast<std::size_t>(assign.trial_offset);
      spec.trial_count = static_cast<std::size_t>(assign.trial_count);
      spec.threads = options.threads;

      verify::ShardRow row;
      row.case_index = static_cast<std::size_t>(assign.scenario);
      row.spec_line = welcome->welcome.spec_lines[assign.scenario];
      try {
        row.result = run_scenario(spec);
      } catch (const std::exception& error) {
        ErrorMsg failure;
        failure.message = "scenario " + std::to_string(assign.scenario) + " window [" +
                          std::to_string(assign.trial_offset) + ", " +
                          std::to_string(assign.trial_offset + assign.trial_count) +
                          ") failed: " + error.what();
        log_line(options, failure.message);
        send_frame(encode_frame(failure));
        return 2;
      }

      if (slow_by.count() != 0) {
        log_line(options, "fault: delaying reply by " + std::to_string(slow_by.count()) +
                              "ms at assignment " + std::to_string(assignments));
        std::this_thread::sleep_for(slow_by);
      }
      ResultMsg reply;
      reply.window = assign.window;
      reply.row = verify::format_shard_row(row);
      send_frame(encode_frame(reply));
    }
  } catch (const std::exception& error) {
    log_line(options, error.what());
    return 1;
  }
}

}  // namespace fle::fabric
