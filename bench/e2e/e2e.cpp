// End-to-end benchmark: one workload per process.
//
//   e2e --workload <name> --seed <n> [--seconds <s>] [--trace <file>]
//
// Workloads (bench/e2e/README.md says why each is there):
//   vgg11-single     closed loop, 1 client, functional Server lane
//   cifar-sia-batch  offline rounds of VGG-11 + ResNet-18 Sia batches
//   serve-storm      open-loop Poisson storm, 3 tenants, seeded faults
//   dvs-sessions     8 closed-loop DVS streaming sessions, early exit
//
// The last line of standard output is the JSON result: end-to-end
// metrics, or with --trace the per-layer metrics, with the spans
// written to <file>. A failed output check prints "correct": false and
// exits non-zero.
#include <cstdlib>
#include <exception>
#include <iostream>

#include "bench/e2e/cifar_sia_batch.hpp"
#include "bench/e2e/dvs_sessions.hpp"
#include "bench/e2e/harness.hpp"
#include "bench/e2e/serve_storm.hpp"
#include "bench/e2e/vgg11_single.hpp"
#include "bench/e2e/workload.hpp"
#include "util/log.hpp"

int main(int argc, char** argv) {
    using namespace sia::bench::e2e;
    Args args;
    if (!parse_args(argc, argv, args)) return 2;
    // Seeded faults log one warning each by design.
    sia::util::set_log_level(sia::util::LogLevel::kError);

    Result result;
    try {
        if (args.workload == "vgg11-single") {
            result = run_workload<Vgg11Single>(args);
        } else if (args.workload == "cifar-sia-batch") {
            result = run_workload<CifarSiaBatch>(args);
        } else if (args.workload == "serve-storm") {
            result = run_workload<ServeStorm>(args);
        } else if (args.workload == "dvs-sessions") {
            result = run_workload<DvsSessions>(args);
        } else {
            std::cerr << "e2e: unknown workload '" << args.workload << "'\n";
            return 2;
        }
    } catch (const std::exception& e) {
        std::cerr << "e2e: " << args.workload << " failed: " << e.what() << "\n";
        return 1;
    }
    print_result(result);
    return result.correct ? EXIT_SUCCESS : EXIT_FAILURE;
}
