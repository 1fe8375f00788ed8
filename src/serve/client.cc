#include "serve/client.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "obs/export.hh"

namespace wbsim::serve
{
namespace
{

std::string
socketError(const char *what)
{
    // strerror_r, not strerror: clients are used from harness worker
    // threads and strerror's shared buffer is not thread-safe
    // (clang-tidy concurrency-mt-unsafe).
    char buf[128];
    const char *text = "unknown error";
#if defined(__GLIBC__) && defined(_GNU_SOURCE)
    text = ::strerror_r(errno, buf, sizeof buf);
#else
    if (::strerror_r(errno, buf, sizeof buf) == 0)
        text = buf;
#endif
    return std::string(what) + ": " + text;
}

} // namespace

ServeClient::~ServeClient()
{
    close();
}

void
ServeClient::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    frames_.reset();
}

bool
ServeClient::connectTcp(std::uint16_t port, std::string &error)
{
    close();
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) {
        error = socketError("socket");
        return false;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd_, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof addr)
        < 0) {
        error = socketError("connect");
        close();
        return false;
    }
    return true;
}

bool
ServeClient::connectUnix(const std::string &path, std::string &error)
{
    close();
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) {
        error = socketError("socket");
        return false;
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof addr.sun_path) {
        error = "unix socket path too long: " + path;
        close();
        return false;
    }
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof addr.sun_path - 1);
    if (::connect(fd_, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof addr)
        < 0) {
        error = socketError("connect");
        close();
        return false;
    }
    return true;
}

bool
ServeClient::roundTrip(const Request &request, Response &response,
                       std::string &error)
{
    return exchange(encodeRequest(request), response, error);
}

bool
ServeClient::exchange(std::string_view payload, Response &response,
                      std::string &error)
{
    if (fd_ < 0) {
        error = "not connected";
        return false;
    }
    if (!writeFrame(fd_, payload)) {
        error = "failed to send request frame";
        close();
        return false;
    }
    FrameResult got = frames_.next(fd_);
    if (got != FrameResult::Ok) {
        error = std::string("failed to read response frame: ")
                + frameResultName(got);
        close();
        return false;
    }
    response = Response{};
    return decodeResponse(frames_.payload(), response, error);
}

bool
ServeClient::ping(std::string &error)
{
    Request request;
    request.type = RequestType::Ping;
    Response response;
    if (!roundTrip(request, response, error))
        return false;
    if (response.type != ResponseType::Pong) {
        error = std::string("expected pong, got ")
                + responseTypeName(response.type);
        return false;
    }
    return true;
}

bool
ServeClient::stats(std::string &statsJson, std::string &error)
{
    Request request;
    request.type = RequestType::Stats;
    Response response;
    if (!roundTrip(request, response, error))
        return false;
    if (response.type != ResponseType::Stats) {
        error = std::string("expected stats, got ")
                + responseTypeName(response.type);
        return false;
    }
    statsJson = std::move(response.statsJson);
    return true;
}

bool
ServeClient::shutdownServer(std::string &error)
{
    Request request;
    request.type = RequestType::Shutdown;
    Response response;
    if (!roundTrip(request, response, error))
        return false;
    if (response.type != ResponseType::Bye) {
        error = std::string("expected bye, got ")
                + responseTypeName(response.type);
        return false;
    }
    return true;
}

bool
ServeClient::sweep(const std::vector<CellSpec> &cells,
                   std::uint32_t priority, Response &response,
                   std::string &error)
{
    return exchange(encodeSweepRequest(priority, cells), response, error);
}

bool
ServeClient::sweepWithRetry(const std::vector<CellSpec> &cells,
                            std::uint32_t priority,
                            unsigned maxAttempts, Response &response,
                            std::string &error)
{
    if (maxAttempts == 0)
        maxAttempts = 1;
    for (unsigned attempt = 0; attempt < maxAttempts; ++attempt) {
        if (!sweep(cells, priority, response, error))
            return false;
        if (response.type != ResponseType::RetryAfter)
            return true;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(response.retryAfterMs));
    }
    error = "server still backpressured after retries";
    return false;
}

bool
ServeClient::cellToResults(const CellResult &cell, SimResults &out,
                           std::string &error)
{
    return obs::simResultsFromJson(cell.resultJson, out, error);
}

} // namespace wbsim::serve
