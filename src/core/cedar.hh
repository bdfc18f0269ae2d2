/**
 * @file
 * Umbrella header: the public API of cedarsim.
 *
 * Typical use:
 *
 *   #include "core/cedar.hh"
 *
 *   cedar::machine::CedarMachine machine;          // the 4x8 system
 *   cedar::runtime::LoopRunner loops(machine);     // DOALL runtime
 *   auto r = cedar::kernels::runRank64(machine, {}); // a kernel
 *   std::printf("%.1f MFLOPS\n", r.mflopsRate());
 *
 * Layers, bottom up:
 *   sim/      discrete-event engine, statistics, logging
 *   net/      interconnect topologies (omega, fat tree, crossbar)
 *             and synthetic traffic generation
 *   mem/      interleaved global memory, Test-And-Operate sync
 *   prefetch/ per-CE prefetch units
 *   cluster/  Alliant FX/8: CEs, shared cache, concurrency bus
 *   machine/  the assembled Cedar system + performance monitors
 *   runtime/  CDOALL / SDOALL / XDOALL loop scheduling
 *   kernels/  VL, TM, RK, CG workloads (timed + functional)
 *   perfect/  Perfect Benchmarks workload models
 *   method/   the "judging parallelism" methodology and reference
 *             machines (Cray Y-MP/8, Cray 1, CM-5)
 *   core/     this facade and report formatting
 */

#ifndef CEDARSIM_CORE_CEDAR_HH
#define CEDARSIM_CORE_CEDAR_HH

#include "cluster/cluster.hh"
#include "core/machine_report.hh"
#include "core/report.hh"
#include "kernels/banded.hh"
#include "kernels/cg.hh"
#include "kernels/rank64.hh"
#include "kernels/tridiag.hh"
#include "kernels/vload.hh"
#include "machine/cedar.hh"
#include "machine/perfmon.hh"
#include "mem/globalmem.hh"
#include "method/machines.hh"
#include "method/metrics.hh"
#include "method/ppt.hh"
#include "method/stability.hh"
#include "net/crossbar.hh"
#include "net/fattree.hh"
#include "net/omega.hh"
#include "net/topology.hh"
#include "net/traffic.hh"
#include "perfect/model.hh"
#include "perfect/profile.hh"
#include "prefetch/pfu.hh"
#include "runtime/loops.hh"
#include "sim/engine.hh"
#include "sim/error.hh"
#include "sim/fault.hh"
#include "sim/probes.hh"
#include "sim/statreg.hh"
#include "sim/watchdog.hh"

#endif // CEDARSIM_CORE_CEDAR_HH
