/**
 * @file
 * wbbench: the wbsim benchmark binary (perfbench/run.py builds and
 * runs it).
 *
 *   wbbench --workload paper_grid|multicore_bus|serve_mix
 *           --seed N --seconds S --trace 0|1 [--out DIR]
 *
 * Progress goes to stderr; the last line on stdout is the result:
 * {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
 * the end-to-end metrics, --trace 1 the per-layer ones (and writes a
 * Chrome trace plus a span summary under --out).
 */

#include <iostream>
#include <string>

#include "bench.hh"
#include "util/options.hh"

namespace
{

int
usage(const std::string &why)
{
    std::cerr << "wbbench: " << why
              << "\nusage: wbbench --workload "
                 "paper_grid|multicore_bus|serve_mix --seed N "
                 "--seconds S --trace 0|1 [--out DIR]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::Args args;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage("missing value for " + flag);
        std::string value = argv[++i];
        std::uint64_t number = 0;
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            if (!wbsim::tryParseUint64(value, args.seed))
                return usage("bad --seed " + value);
        } else if (flag == "--seconds") {
            if (!wbsim::tryParseDouble(value, args.seconds)
                || !(args.seconds > 0.0))
                return usage("bad --seconds " + value);
        } else if (flag == "--trace") {
            if (!wbsim::tryParseUint64(value, number) || number > 1)
                return usage("bad --trace " + value);
            args.trace = number == 1;
        } else if (flag == "--out") {
            args.outDir = value;
        } else {
            return usage("unknown option " + flag);
        }
    }

    perfbench::Report report;
    if (args.workload == "paper_grid")
        perfbench::runPaperGrid(args, report);
    else if (args.workload == "multicore_bus")
        perfbench::runMulticoreBus(args, report);
    else if (args.workload == "serve_mix")
        perfbench::runServeMix(args, report);
    else
        return usage("unknown workload '" + args.workload + "'");
    report.print(std::cout);
    std::cout << std::endl;
    return 0;
}
