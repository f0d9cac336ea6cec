#include "vsim/profile.h"

#include <algorithm>
#include <stdexcept>

namespace strato::vsim {

const char* to_string(VirtTech t) {
  switch (t) {
    case VirtTech::kNative:
      return "Native";
    case VirtTech::kKvmFull:
      return "KVM (full virt.)";
    case VirtTech::kKvmPara:
      return "KVM (paravirt.)";
    case VirtTech::kXenPara:
      return "XEN (paravirt.)";
    case VirtTech::kEc2:
      return "Amazon EC2";
  }
  return "?";
}

const char* to_string(IoOp op) {
  switch (op) {
    case IoOp::kNetSend:
      return "net-send";
    case IoOp::kNetRecv:
      return "net-recv";
    case IoOp::kFileWrite:
      return "file-write";
    case IoOp::kFileRead:
      return "file-read";
  }
  return "?";
}

namespace {

using metrics::CpuBreakdown;

// ---------------------------------------------------------------------------
// Fig. 1 CPU accounting tables.
//
// Each entry: breakdown displayed inside the VM vs reported by the host for
// the VM's worker at I/O saturation. Values are modelled (fractions of one
// core; the host view may exceed 1.0 because qemu/dom0 helpers run on other
// cores) but reproduce the paper's qualitative results:
//   * net send, KVM paravirt: guest sees ~7 % while the host burns >100 %
//     (the "factor 15" example);
//   * file read, XEN: same story on the disk path;
//   * net send, KVM full virt. and XEN: discrepancy comparatively small;
//   * EC2: host side unobservable, guest displays STEAL.
// ---------------------------------------------------------------------------

struct AccountingRow {
  VirtTech tech;
  IoOp op;
  CpuAccounting acc;
};

const AccountingRow kAccounting[] = {
    // --- network send (Fig. 1a) ---
    {VirtTech::kNative, IoOp::kNetSend,
     {{.05, .25, .02, .10, .00}, {.05, .25, .02, .10, .00}, true}},
    {VirtTech::kKvmFull, IoOp::kNetSend,
     {{.03, .42, .04, .18, .00}, {.12, .95, .03, .28, .00}, true}},
    {VirtTech::kKvmPara, IoOp::kNetSend,
     {{.02, .03, .00, .02, .00}, {.10, .70, .02, .22, .00}, true}},
    {VirtTech::kXenPara, IoOp::kNetSend,
     {{.02, .28, .01, .12, .08}, {.03, .38, .02, .15, .00}, true}},
    {VirtTech::kEc2, IoOp::kNetSend,
     {{.04, .35, .00, .22, .12}, {}, false}},
    // --- network receive (Fig. 1b) ---
    {VirtTech::kNative, IoOp::kNetRecv,
     {{.04, .28, .03, .14, .00}, {.04, .28, .03, .14, .00}, true}},
    {VirtTech::kKvmFull, IoOp::kNetRecv,
     {{.04, .50, .05, .26, .00}, {.10, .85, .04, .30, .00}, true}},
    {VirtTech::kKvmPara, IoOp::kNetRecv,
     {{.02, .04, .00, .03, .00}, {.08, .72, .03, .27, .00}, true}},
    {VirtTech::kXenPara, IoOp::kNetRecv,
     {{.02, .32, .02, .18, .06}, {.04, .45, .03, .20, .00}, true}},
    {VirtTech::kEc2, IoOp::kNetRecv,
     {{.05, .38, .00, .25, .15}, {}, false}},
    // --- file write (Fig. 1c) ---
    {VirtTech::kNative, IoOp::kFileWrite,
     {{.02, .14, .01, .02, .00}, {.02, .14, .01, .02, .00}, true}},
    {VirtTech::kKvmFull, IoOp::kFileWrite,
     {{.02, .14, .02, .03, .00}, {.05, .33, .03, .05, .00}, true}},
    {VirtTech::kKvmPara, IoOp::kFileWrite,
     {{.01, .04, .00, .01, .00}, {.04, .25, .02, .04, .00}, true}},
    {VirtTech::kXenPara, IoOp::kFileWrite,
     {{.01, .06, .00, .01, .04}, {.03, .22, .02, .04, .00}, true}},
    {VirtTech::kEc2, IoOp::kFileWrite,
     {{.02, .13, .00, .02, .08}, {}, false}},
    // --- file read (Fig. 1d) ---
    {VirtTech::kNative, IoOp::kFileRead,
     {{.02, .17, .02, .02, .00}, {.02, .17, .02, .02, .00}, true}},
    {VirtTech::kKvmFull, IoOp::kFileRead,
     {{.02, .11, .01, .02, .00}, {.06, .28, .03, .04, .00}, true}},
    {VirtTech::kKvmPara, IoOp::kFileRead,
     {{.01, .06, .00, .01, .00}, {.05, .21, .02, .03, .00}, true}},
    {VirtTech::kXenPara, IoOp::kFileRead,
     {{.005, .02, .00, .005, .01}, {.05, .32, .03, .05, .00}, true}},
    {VirtTech::kEc2, IoOp::kFileRead,
     {{.02, .08, .00, .02, .05}, {}, false}},
};

VirtProfile make_native() {
  VirtProfile p;
  p.tech = VirtTech::kNative;
  p.name = to_string(p.tech);
  p.net_bytes_s = 117.6e6;  // ~941 MBit/s over GigE
  p.net_fluct = {FluctuationKind::kGaussian, 0.012, 0, 0, 0, 0, 0.005};
  p.disk_write_bytes_s = 92e6;
  p.disk_fluct = {FluctuationKind::kGaussian, 0.05, 0, 0, 0, 0, 0.01};
  p.net_cpu_s_per_byte = 3.6e-9;  // ~0.42 cores at line rate
  p.net_cpu_visibility = 1.0;     // nothing hidden without a hypervisor
  p.disk_cpu_s_per_byte = 2.1e-9;
  p.disk_cpu_visibility = 1.0;
  p.steal_per_colocated_vm = 0.0;
  return p;
}

VirtProfile make_kvm_full() {
  VirtProfile p = make_native();
  p.tech = VirtTech::kKvmFull;
  p.name = to_string(p.tech);
  p.net_bytes_s = 52.5e6;  // ~420 MBit/s through the emulated e1000
  p.net_fluct.sigma = 0.045;
  p.net_fluct.run_bias_sigma = 0.02;
  p.disk_fluct.run_bias_sigma = 0.03;
  p.disk_write_bytes_s = 78e6;
  p.disk_fluct.sigma = 0.10;
  p.net_cpu_s_per_byte = 2.6e-8;  // device emulation is expensive
  p.net_cpu_visibility = 0.49;
  p.disk_cpu_s_per_byte = 5.8e-9;
  p.disk_cpu_visibility = 0.45;
  p.steal_per_colocated_vm = 0.035;
  p.steal_displayed = false;  // stock guest shows no steal under KVM
  return p;
}

VirtProfile make_kvm_para() {
  VirtProfile p = make_native();
  p.tech = VirtTech::kKvmPara;
  p.name = to_string(p.tech);
  p.net_bytes_s = 87.5e6;  // ~700 MBit/s via virtio_net
  p.net_fluct.sigma = 0.035;
  p.net_fluct.run_bias_sigma = 0.015;
  p.disk_fluct.run_bias_sigma = 0.02;
  p.disk_write_bytes_s = 85e6;
  p.disk_fluct.sigma = 0.08;
  // The paper's headline case: the host burns ~a core at saturation while
  // the guest displays ~7 % (factor ~15).
  p.net_cpu_s_per_byte = 1.2e-8;
  p.net_cpu_visibility = 0.07;
  p.disk_cpu_s_per_byte = 4.1e-9;
  p.disk_cpu_visibility = 0.17;
  p.steal_per_colocated_vm = 0.035;
  p.steal_displayed = false;
  return p;
}

VirtProfile make_xen_para() {
  VirtProfile p = make_native();
  p.tech = VirtTech::kXenPara;
  p.name = to_string(p.tech);
  p.net_bytes_s = 95e6;  // ~760 MBit/s via xennet
  p.net_fluct.sigma = 0.05;
  p.net_fluct.run_bias_sigma = 0.02;
  p.disk_fluct.run_bias_sigma = 0.02;
  p.disk_write_bytes_s = 80e6;
  p.disk_fluct.sigma = 0.07;
  // The XEN file-write anomaly (Fig. 3): guest writes land in the dom0
  // page cache at memory speed until the host flushes, during which the
  // displayed rate collapses to a few MB/s.
  p.disk_cache.write_back_cache = true;
  p.disk_cache.cache_bytes = 1.5e9;
  p.disk_cache.cache_rate = 3.5e8;
  p.disk_cache.flush_rate = 5.0e6;
  p.disk_cache.flush_fraction = 0.6;
  p.net_cpu_s_per_byte = 6.1e-9;
  p.net_cpu_visibility = 0.88;  // netfront accounting is mostly honest
  p.disk_cpu_s_per_byte = 5.6e-9;
  p.disk_cpu_visibility = 0.07;  // ...the block path is not (Fig. 1d)
  p.steal_per_colocated_vm = 0.04;
  p.steal_displayed = true;
  return p;
}

VirtProfile make_ec2() {
  VirtProfile p = make_native();
  p.tech = VirtTech::kEc2;
  p.name = to_string(p.tech);
  // Wang & Ng / the paper's own baseline: TCP throughput swings between
  // ~zero and 1 GBit/s at a granularity of tens of milliseconds.
  p.net_bytes_s = 112e6;
  p.net_fluct.kind = FluctuationKind::kTwoState;
  p.net_fluct.sigma = 0.03;
  p.net_fluct.degraded_floor = 0.03;
  p.net_fluct.degraded_ceil = 0.45;
  p.net_fluct.mean_dwell_ms = 30.0;
  p.net_fluct.degraded_prob = 0.35;
  p.net_fluct.run_bias_sigma = 0.08;
  p.disk_fluct.run_bias_sigma = 0.10;
  p.disk_write_bytes_s = 65e6;  // m1.small ephemeral storage
  p.disk_fluct.sigma = 0.15;
  p.net_cpu_s_per_byte = 1.1e-8;
  p.net_cpu_visibility = 0.62;
  p.disk_cpu_s_per_byte = 4.5e-9;
  p.disk_cpu_visibility = 0.55;
  p.steal_per_colocated_vm = 0.05;
  p.steal_displayed = true;
  return p;
}

}  // namespace

CpuAccounting VirtProfile::accounting(IoOp op) const {
  for (const auto& row : kAccounting) {
    if (row.tech == tech && row.op == op) return row.acc;
  }
  throw std::logic_error("no accounting row");
}

SenderCpu VirtProfile::sender_cpu(int flows, double host_gen) const {
  const double steal = std::min(0.6, steal_per_colocated_vm * flows);
  return {steal, (1.0 - steal) * host_gen};
}

const VirtProfile& profile(VirtTech tech) {
  static const VirtProfile native = make_native();
  static const VirtProfile kvm_full = make_kvm_full();
  static const VirtProfile kvm_para = make_kvm_para();
  static const VirtProfile xen_para = make_xen_para();
  static const VirtProfile ec2 = make_ec2();
  switch (tech) {
    case VirtTech::kNative:
      return native;
    case VirtTech::kKvmFull:
      return kvm_full;
    case VirtTech::kKvmPara:
      return kvm_para;
    case VirtTech::kXenPara:
      return xen_para;
    case VirtTech::kEc2:
      return ec2;
  }
  throw std::logic_error("unknown tech");
}

}  // namespace strato::vsim
