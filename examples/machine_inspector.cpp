/**
 * @file
 * Example: the performance-monitoring view. Runs the same kernel under
 * increasing load and prints the full machine report each time — the
 * workflow the CSRD group used their hardware monitors for, watching
 * contention appear in the memory system as clusters join. The final
 * run also dumps the full stat registry as hierarchical JSON and
 * writes a Chrome trace of the monitored events.
 * `--telemetry` additionally streams interval telemetry (one JSONL
 * record per `--interval` ticks, plus a final record) from every run
 * to the given file — the raw material for utilization curves.
 *
 * Checkpoint workflows (DESIGN.md §11):
 *   --save-checkpoint FILE     after the 4-cluster run, serialize the
 *                              quiesced machine to FILE
 *   --restore-checkpoint FILE  restore FILE into a fresh machine and
 *                              print its report (cross-process restore)
 *   --checkpoint-info FILE     print FILE's manifest (schema, tick,
 *                              sections, CRCs) and exit — the triage
 *                              view for corrupt/version-skewed files
 *
 *   $ ./examples/machine_inspector [--stats-json] [--chrome-trace FILE]
 *                                  [--telemetry FILE [--interval N]]
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>

#include "core/cedar.hh"
#include "core/machine_report.hh"
#include "sim/checkpoint.hh"
#include "sim/telemetry.hh"

using namespace cedar;

int
main(int argc, char **argv)
{
    setLogQuiet(true);
    bool stats_json = false;
    const char *trace_path = nullptr;
    const char *telemetry_path = nullptr;
    const char *save_ckpt = nullptr;
    const char *restore_ckpt = nullptr;
    const char *info_ckpt = nullptr;
    Tick interval = 50'000;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--stats-json") == 0)
            stats_json = true;
        else if (std::strcmp(argv[i], "--chrome-trace") == 0 &&
                 i + 1 < argc)
            trace_path = argv[++i];
        else if (std::strcmp(argv[i], "--telemetry") == 0 &&
                 i + 1 < argc)
            telemetry_path = argv[++i];
        else if (std::strcmp(argv[i], "--save-checkpoint") == 0 &&
                 i + 1 < argc)
            save_ckpt = argv[++i];
        else if (std::strcmp(argv[i], "--restore-checkpoint") == 0 &&
                 i + 1 < argc)
            restore_ckpt = argv[++i];
        else if (std::strcmp(argv[i], "--checkpoint-info") == 0 &&
                 i + 1 < argc)
            info_ckpt = argv[++i];
        else if (std::strcmp(argv[i], "--interval") == 0 && i + 1 < argc) {
            long long n = std::atoll(argv[++i]);
            if (n < 1) {
                std::fprintf(stderr, "--interval wants >= 1 tick\n");
                return 2;
            }
            interval = Tick(n);
        }
    }

    // Manifest-only mode: decode the container without restoring.
    // describeCheckpoint validates magic, CRCs, and schema, so a
    // corrupt or version-skewed file dies here with the typed error.
    if (info_ckpt) {
        try {
            std::fputs(describeCheckpoint(readCheckpointFile(info_ckpt))
                           .c_str(),
                       stdout);
            return 0;
        } catch (const SimError &e) {
            std::fprintf(stderr, "%s\n", e.what());
            return 1;
        }
    }

    // Restore mode: bring FILE up in a fresh standard machine and
    // print the same report a live run would, proving the snapshot is
    // self-contained across processes.
    if (restore_ckpt) {
        try {
            machine::CedarMachine machine;
            machine.restoreCheckpoint(readCheckpointFile(restore_ckpt));
            std::printf("################ restored from %s (tick %llu) "
                        "################\n",
                        restore_ckpt,
                        static_cast<unsigned long long>(
                            machine.sim().curTick()));
            auto snap = core::snapshot(machine);
            std::fputs(core::renderReport(snap).c_str(), stdout);
            if (stats_json) {
                std::fputs(machine.stats().dumpJson().c_str(), stdout);
                std::fputs("\n", stdout);
            }
            return 0;
        } catch (const SimError &e) {
            std::fprintf(stderr, "%s\n", e.what());
            return 1;
        }
    }

    std::unique_ptr<FileTelemetrySink> telemetry;
    if (telemetry_path)
        telemetry = std::make_unique<FileTelemetrySink>(telemetry_path);

    for (unsigned clusters : {1u, 4u}) {
        machine::CedarMachine machine;
        machine.enableMonitoring();
        if (telemetry) {
            telemetry->write("{\"v\":1,\"kind\":\"point\",\"label\":"
                             "\"rank64 clusters=" +
                             std::to_string(clusters) + "\"}");
            TelemetryParams params;
            params.interval = interval;
            machine.enableTelemetry(params, *telemetry);
        }
        // Open the trace stream before the run: if the kernel dies in
        // a SimError, the stream's destructor still closes the JSON
        // array, so whatever was captured stays loadable.
        std::unique_ptr<machine::ChromeTraceStream> trace_stream;
        if (clusters == 4 && trace_path)
            trace_stream =
                std::make_unique<machine::ChromeTraceStream>(trace_path);

        kernels::Rank64Params params;
        params.n = 256;
        params.clusters = clusters;
        params.version = kernels::Rank64Version::gm_prefetch;
        auto res = kernels::runRank64(machine, params);

        std::printf("\n################ %u cluster%s, %.1f MFLOPS "
                    "################\n",
                    clusters, clusters == 1 ? "" : "s",
                    res.mflopsRate());
        auto snap = core::snapshot(machine);
        std::fputs(core::renderReport(snap).c_str(), stdout);

        if (clusters == 4) {
            std::printf("\n==== stat registry (%zu entries) ====\n",
                        machine.stats().size());
            if (stats_json) {
                std::fputs(machine.stats().dumpJson().c_str(), stdout);
                std::fputs("\n", stdout);
            } else {
                // A taste of the hierarchy; --stats-json prints it all.
                std::printf("%s\n(run with --stats-json for the full "
                            "hierarchical dump)\n",
                            machine.stats()
                                .dumpText()
                                .substr(0, 600)
                                .c_str());
            }
            const auto &tracer = machine.monitor().tracer();
            std::printf("\nmonitor: %zu events captured (%llu dropped)\n",
                        tracer.events().size(),
                        static_cast<unsigned long long>(
                            tracer.droppedCount()));
            if (trace_stream) {
                trace_stream->drain(tracer);
                if (trace_stream->close()) {
                    std::printf("Chrome trace written to %s (open in "
                                "chrome://tracing or ui.perfetto.dev)\n",
                                trace_path);
                } else {
                    std::printf("failed to write %s\n", trace_path);
                }
            }
            if (save_ckpt) {
                // The monitor's trace buffer is not serializable, so
                // detach it before snapshotting the quiesced machine.
                machine.disableMonitoring();
                std::string bytes = machine.saveCheckpoint();
                writeCheckpointFile(save_ckpt, bytes);
                std::printf("\ncheckpoint written to %s (%zu bytes, "
                            "tick %llu); inspect with --checkpoint-info,"
                            " revive with --restore-checkpoint\n",
                            save_ckpt, bytes.size(),
                            static_cast<unsigned long long>(
                                machine.sim().curTick()));
            }
        }
    }

    if (telemetry_path) {
        std::printf("\ninterval telemetry written to %s "
                    "(one JSONL record per %llu ticks)\n",
                    telemetry_path,
                    static_cast<unsigned long long>(interval));
    }

    std::printf("\nreading: at one cluster the modules barely wait; at "
                "four the conflict counters\nand queueing means show "
                "the saturation that flattens Table 1's GM/pref row.\n");
    return 0;
}
