// Virtualization profiles — the testbed substitution.
//
// The paper measures XEN (paravirt), KVM (full + paravirt), Amazon EC2 and
// a native baseline on a Eucalyptus cloud (appendix). We model each
// technique as a parameter set capturing exactly the phenomena the paper
// reports:
//
//  * effective network / disk throughput and its fluctuation behaviour
//    (Fig. 2 / Fig. 3), including EC2's 0..1 GBit/s swings at tens of ms
//    (Wang & Ng, confirmed by the paper) and XEN's host write-back cache
//    spikes;
//  * the CPU cost of I/O and, separately, the *fraction of that cost that
//    the guest can see* — the source of the up-to-15x discrepancy between
//    VM-displayed and host-reported utilization (Fig. 1);
//  * steal time induced by co-located VMs.
//
// The absolute numbers are modelling choices documented here and in
// DESIGN.md; the *relations* between them (which technique shows what
// skew, who fluctuates, where caching appears) follow the paper's Section
// II findings.
#pragma once

#include <array>
#include <string>

#include "metrics/cpu.h"

namespace strato::vsim {

/// Virtualization technique under test.
enum class VirtTech {
  kNative,
  kKvmFull,
  kKvmPara,
  kXenPara,
  kEc2,
};

constexpr std::array<VirtTech, 5> kAllTechs = {
    VirtTech::kNative, VirtTech::kKvmFull, VirtTech::kKvmPara,
    VirtTech::kXenPara, VirtTech::kEc2};

const char* to_string(VirtTech t);

/// The four I/O operations of the measurement study (Fig. 1a-d).
enum class IoOp { kNetSend, kNetRecv, kFileWrite, kFileRead };

constexpr std::array<IoOp, 4> kAllIoOps = {IoOp::kNetSend, IoOp::kNetRecv,
                                           IoOp::kFileWrite, IoOp::kFileRead};

const char* to_string(IoOp op);

/// CPU accounting for one I/O operation at saturation: what the guest
/// displays vs what the host reports for the VM's worker (qemu process /
/// xentop domU line).
struct CpuAccounting {
  metrics::CpuBreakdown vm_view;    ///< displayed inside the VM
  metrics::CpuBreakdown host_view;  ///< reported by the host
  bool host_observable = true;      ///< false on EC2 (no host access)
};

/// Bandwidth fluctuation shape of a link/disk.
enum class FluctuationKind {
  kGaussian,   ///< small multiplicative noise around the mean
  kTwoState,   ///< EC2-style on/degraded Markov switching (tens of ms)
};

struct FluctuationParams {
  FluctuationKind kind = FluctuationKind::kGaussian;
  double sigma = 0.02;          ///< relative noise (gaussian kind)
  double degraded_floor = 0.05; ///< two-state: low-state factor range
  double degraded_ceil = 0.45;
  double mean_dwell_ms = 30.0;  ///< two-state: mean state dwell time
  double degraded_prob = 0.35;  ///< two-state: long-run degraded fraction
  /// Inter-run capacity spread: each run (seed) draws one persistent
  /// multiplicative bias ~ N(1, run_bias_sigma). Models the host
  /// heterogeneity behind the paper's run-to-run standard deviations
  /// (Schad et al.: "virtual machines of the same type may be hosted on
  /// different generations of host systems").
  double run_bias_sigma = 0.0;
};

/// Host write-back cache behaviour for file writes (the XEN finding).
struct DiskCacheParams {
  bool write_back_cache = false; ///< guest writes land in host page cache
  double cache_bytes = 1.5e9;    ///< dirty-page budget before a flush stall
  double cache_rate = 3.5e8;     ///< absorb rate while cache has room (B/s)
  double flush_rate = 5.0e6;     ///< displayed rate while the host flushes
  double flush_fraction = 0.6;   ///< fraction of the cache drained per stall
};

/// The sender's vCPU on one run's host (VirtProfile::sender_cpu).
struct SenderCpu {
  double steal = 0.0;  ///< fraction co-located VMs take from it
  double scale = 1.0;  ///< codec speed factor: (1 - steal) x host_gen
};

/// One virtualization technique's complete parameter set.
struct VirtProfile {
  VirtTech tech = VirtTech::kNative;
  std::string name;

  // --- network -----------------------------------------------------------
  double net_bytes_s = 117e6;       ///< effective TCP throughput, saturated
  FluctuationParams net_fluct;

  // --- disk ---------------------------------------------------------------
  double disk_write_bytes_s = 90e6;
  FluctuationParams disk_fluct;
  DiskCacheParams disk_cache;

  // --- CPU ----------------------------------------------------------------
  /// Host CPU seconds consumed per byte moved through the virtual NIC
  /// (I/O handling: vmexits, copies, interrupt processing).
  double net_cpu_s_per_byte = 0.0;
  /// Fraction of that cost the guest's /proc/stat can see. Small values
  /// produce the paper's displayed-vs-actual discrepancy.
  double net_cpu_visibility = 1.0;
  /// Same pair for disk I/O.
  double disk_cpu_s_per_byte = 0.0;
  double disk_cpu_visibility = 1.0;
  /// Steal fraction added per co-located busy VM (XEN/EC2 display STEAL;
  /// KVM guests without a steal driver just lose the time silently).
  double steal_per_colocated_vm = 0.03;
  bool steal_displayed = false;

  /// The sender's vCPU while `flows` co-located VMs are busy: each steals
  /// steal_per_colocated_vm of it, 0.6 at most, and what is left runs at
  /// `host_gen` (draw_host_generation).
  [[nodiscard]] SenderCpu sender_cpu(int flows, double host_gen) const;

  /// CPU accounting table for the Fig. 1 study, per I/O op.
  [[nodiscard]] CpuAccounting accounting(IoOp op) const;
};

/// Parameter set for a technique.
const VirtProfile& profile(VirtTech tech);

}  // namespace strato::vsim
