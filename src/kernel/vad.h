// The Virtual Audio Device — the paper's core kernel contribution (§2.1).
//
// A VAD is a device pair modeled on pty(4): the slave (/dev/vads0) looks
// exactly like an audio device to an application (it is an AudioHighLevel
// with a pseudo low-level driver behind it), and everything written to the
// slave, together with every ioctl configuration change, comes out of the
// master (/dev/vadm0) as a stream of framed records that a user process —
// the Audio Stream Rebroadcaster — can read.
//
// The §3.3 problem, reproduced: the high-level driver calls the low-level
// driver's TriggerOutput() exactly once and then expects "hardware" to keep
// the interrupt chain alive. The VAD has no hardware, so it must fake the
// chain; both of the paper's solutions exist here as pump policies:
//
//   kKernelThread  — a kernel thread periodically calls the interrupt path
//                    (the paper's shipped solution; costs 2 context
//                    switches per activation, visible in Figure 5)
//   kModifiedHld   — the data-available hook re-arms a softclock-style
//                    callout (the "modify the independent audio driver"
//                    alternative; cheaper, more invasive)
//   kNone          — neither fix: playback stalls after the ring fills,
//                    demonstrating why the problem had to be solved.
//
// Note the pump is deliberately NOT rate-limited (§3.1): with no hardware
// clock, data drains as fast as the consumer takes it. Rate limiting is the
// rebroadcaster's job, and bench C3 shows what happens when it's skipped.
#ifndef SRC_KERNEL_VAD_H_
#define SRC_KERNEL_VAD_H_

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "src/audio/format.h"
#include "src/kernel/audio_hld.h"
#include "src/kernel/audio_lld.h"
#include "src/kernel/device.h"
#include "src/sim/simulation.h"

namespace espk {

class PacketTracer;
class SimKernel;

// One framed unit read from the master side: either a chunk of audio or a
// configuration update. Config records are what let the consumer "always
// decode the audio stream correctly" (§2.1).
struct VadRecord {
  enum class Type : uint8_t { kAudio = 1, kConfig = 2 };

  Type type = Type::kAudio;
  Bytes audio;         // For kAudio.
  AudioConfig config;  // For kConfig.

  Bytes Serialize() const;
  static Result<VadRecord> Deserialize(const Bytes& frame);
};

enum class VadPumpPolicy {
  kNone,
  kKernelThread,
  kModifiedHld,
};

class VadSlaveLowLevel;

// The master (control) side: a read-only device delivering VadRecords.
class VadMasterDevice : public Device {
 public:
  VadMasterDevice(SimKernel* kernel, std::string name, size_t capacity_bytes);

  std::string name() const override { return name_; }
  Status OnOpen(Pid pid) override;
  void OnClose(Pid pid) override;
  void Write(Pid pid, const Bytes& data, WriteCallback done) override;
  // Each Read returns exactly one serialized VadRecord frame.
  void Read(Pid pid, size_t max_bytes, ReadCallback done) override;
  Status Ioctl(Pid pid, IoctlCmd cmd, Bytes* inout) override;
  void Drain(Pid pid, DrainCallback done) override;

  // ------------------------------------------- slave-side (pump) hooks --
  void EnqueueAudio(Bytes block);
  void EnqueueConfig(const AudioConfig& config);
  bool HasRoom() const { return queued_audio_bytes_ < capacity_bytes_; }
  size_t queued_records() const { return queue_.size(); }

  void set_pump(VadSlaveLowLevel* pump) { pump_ = pump; }

  // Marks every audio byte committed into the master stream as the
  // kVadWrite trace stage for `stream_id` (the system wires this up).
  void SetTrace(PacketTracer* tracer, uint32_t stream_id) {
    tracer_ = tracer;
    trace_stream_id_ = stream_id;
  }

 private:
  void ServeReaderIfPossible();

  SimKernel* kernel_;
  std::string name_;
  size_t capacity_bytes_;
  std::deque<VadRecord> queue_;
  size_t queued_audio_bytes_ = 0;
  std::optional<Pid> owner_;
  std::optional<std::pair<Pid, ReadCallback>> pending_read_;
  std::optional<AudioConfig> last_config_;
  VadSlaveLowLevel* pump_ = nullptr;
  PacketTracer* tracer_ = nullptr;
  uint32_t trace_stream_id_ = 0;
};

// The slave's pseudo low-level driver: implements the pump.
class VadSlaveLowLevel : public AudioLowLevel {
 public:
  // Blocks an in-kernel consumer receives directly (Figure 5's "kernel
  // threaded VAD" streaming configuration bypasses the master device).
  using KernelSinkCallback =
      std::function<void(const Bytes& block, const AudioConfig& config)>;

  VadSlaveLowLevel(SimKernel* kernel, std::string name,
                   VadMasterDevice* master, VadPumpPolicy policy,
                   SimDuration pump_period);

  std::string name() const override { return name_; }
  bool is_pseudo() const override { return true; }
  void Attach(AudioHighLevel* hld) override { hld_ = hld; }
  void OnConfigChange(const AudioConfig& config) override;
  Status TriggerOutput() override;
  void HaltOutput() override;
  void OnDataAvailable() override;

  // Called by the master when the consumer frees queue space.
  void OnMasterDrained();

  // When set, the pump streams into the kernel sink instead of the master
  // queue (in-kernel streaming, §3.3 first design).
  void set_kernel_sink(KernelSinkCallback sink) {
    kernel_sink_ = std::move(sink);
  }

  VadPumpPolicy policy() const { return policy_; }
  uint64_t blocks_pumped() const { return blocks_pumped_; }

 private:
  void KthreadTick();
  void SoftclockPump();
  void DrainAvailable();
  bool SinkHasRoom() const;

  SimKernel* kernel_;
  std::string name_;
  VadMasterDevice* master_;
  VadPumpPolicy policy_;
  SimDuration pump_period_;
  AudioHighLevel* hld_ = nullptr;
  KernelSinkCallback kernel_sink_;
  bool running_ = false;
  bool softclock_armed_ = false;
  uint64_t blocks_pumped_ = 0;
  Simulation::EventHandle pump_event_;
};

struct VadOptions {
  VadPumpPolicy policy = VadPumpPolicy::kKernelThread;
  // Slave ring buffer (the audio(4) play buffer).
  size_t slave_ring_capacity = 65536;
  // Cap on audio bytes queued master-side before backpressure.
  size_t master_capacity = 262144;
  // Kernel-thread tick / softclock delay.
  SimDuration pump_period = Milliseconds(20);
};

struct VadHandles {
  AudioHighLevel* slave;      // /dev/vadsN — what the audio app opens.
  VadMasterDevice* master;    // /dev/vadmN — what the rebroadcaster opens.
  VadSlaveLowLevel* lld;      // The pump, for tests and kernel sinks.
};

// Registers /dev/vadsN and /dev/vadmN with the kernel.
Result<VadHandles> CreateVadPair(SimKernel* kernel, int index,
                                 const VadOptions& options = VadOptions());

}  // namespace espk

#endif  // SRC_KERNEL_VAD_H_
