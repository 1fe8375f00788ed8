/**
 * @file
 * The wbsim-serve daemon: answer sweep requests over TCP (loopback)
 * or a Unix-domain socket until a client asks for shutdown or the
 * process receives SIGINT/SIGTERM.
 *
 * Quick start:
 *
 *     wbsim_serve --port=7741 --workers=8 --grid-cache-mb=512 &
 *     # ... clients connect with serve::ServeClient or
 *     #     design_space_explorer --server=7741 ...
 */

#include <pthread.h>
#include <signal.h>

#include <iostream>
#include <thread>

#include "harness/experiment.hh"
#include "serve/server.hh"
#include "util/logging.hh"
#include "util/options.hh"

int
main(int argc, char **argv)
{
    using namespace wbsim;
    using namespace wbsim::serve;

    Options options;
    options.declare("port", "TCP port on 127.0.0.1 (0 = ephemeral)",
                    "7741");
    options.declare("unix", "serve on this Unix socket path instead",
                    "");
    options.declare("workers",
                    "simulation worker threads (0 = all cores)", "0");
    options.declare("queue", "admission queue capacity, in cells",
                    "1024");
    options.declare("discipline", "dispatch discipline: fcfs|priority",
                    "fcfs");
    options.declare("store-mb",
                    "result store byte budget, MB (0 = unbounded)",
                    "256");
    options.declare("grid-cache-mb",
                    "grid cache byte budget, MB (0 = unbounded; a "
                    "long-lived daemon should set one)",
                    "512");
    options.declare("retry-after-ms",
                    "backoff hint handed out under overload", "50");
    options.declare("max-cells", "cells one request may carry",
                    "4096");
    options.declare("max-instructions",
                    "per-cell instructions + warmup cap", "64000000");
    options.declare("help", "print usage", "", true);
    options.parse(argc, argv);
    if (options.getFlag("help")) {
        std::cout << options.usage();
        return 0;
    }

    ServeConfig config;
    config.port = std::uint16_t(options.getUint("port"));
    config.unixPath = options.get("unix");
    config.workers = unsigned(options.getUint("workers"));
    config.queueCapacity = options.getUint("queue");
    config.discipline =
        parseDispatchDiscipline(options.get("discipline"));
    config.storeBudgetBytes = options.getUint("store-mb") << 20;
    config.retryAfterMs =
        std::uint32_t(options.getUint("retry-after-ms"));
    config.maxCellsPerRequest = options.getUint("max-cells");
    config.cellInstructionCap = options.getUint("max-instructions");

    setGridCacheByteBudget(options.getUint("grid-cache-mb") << 20);

    // Route SIGINT/SIGTERM through sigwait on a dedicated thread:
    // unlike a signal handler, that thread may safely take locks and
    // notify the shutdown condvar. Every thread the server spawns
    // inherits this mask, so the signal can only land in sigwait.
    sigset_t signals;
    sigemptyset(&signals);
    sigaddset(&signals, SIGINT);
    sigaddset(&signals, SIGTERM);
    pthread_sigmask(SIG_BLOCK, &signals, nullptr);

    ServeServer server(config);
    std::string error;
    if (!server.start(error))
        wbsim_fatal("wbsim-serve failed to start: ", error);

    std::thread signalThread([&]() {
        int signal = 0;
        sigwait(&signals, &signal);
        server.requestShutdown();
    });

    if (!config.unixPath.empty())
        std::cout << "wbsim-serve listening on unix:"
                  << config.unixPath << std::endl;
    else
        std::cout << "wbsim-serve listening on 127.0.0.1:"
                  << server.port() << std::endl;

    server.waitForShutdownRequest();
    server.stop();
    // If shutdown came from a client, hand the sigwait thread the
    // signal it is still waiting for.
    pthread_kill(signalThread.native_handle(), SIGTERM);
    signalThread.join();
    std::cout << "wbsim-serve drained; final stats:\n"
              << server.statsJson();
    return 0;
}
