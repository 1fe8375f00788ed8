/**
 * @file
 * Blocking client for the wbsim-serve wire protocol.
 *
 * Deliberately simple: one socket, one outstanding request at a
 * time (concurrency comes from running many clients, which is
 * exactly what bench/serve_loadgen does). Every call is non-fatal —
 * network failures come back as false + an error string, and
 * server-side backpressure surfaces as ResponseType::RetryAfter,
 * which sweepWithRetry() turns into honour-the-hint retry loops.
 */

#ifndef WBSIM_SERVE_CLIENT_HH
#define WBSIM_SERVE_CLIENT_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "serve/wire.hh"
#include "sim/results.hh"

namespace wbsim::serve
{

/** A blocking wbsim-serve client over one stream socket. */
class ServeClient
{
  public:
    ServeClient() = default;
    ~ServeClient();

    ServeClient(const ServeClient &) = delete;
    ServeClient &operator=(const ServeClient &) = delete;
    ServeClient(ServeClient &&other) noexcept
        : fd_(std::exchange(other.fd_, -1)),
          frames_(std::move(other.frames_))
    {
    }
    ServeClient &
    operator=(ServeClient &&other) noexcept
    {
        if (this != &other) {
            close();
            fd_ = std::exchange(other.fd_, -1);
            frames_ = std::move(other.frames_);
        }
        return *this;
    }

    /** Connect to 127.0.0.1:@p port. */
    bool connectTcp(std::uint16_t port, std::string &error);
    /** Connect to a Unix-domain socket. */
    bool connectUnix(const std::string &path, std::string &error);

    bool connected() const { return fd_ >= 0; }
    void close();

    /** Send @p request, read one response frame. False on transport
     *  or protocol damage (@p error says what); a server-side Error
     *  or RetryAfter is a *successful* round trip — inspect
     *  @p response.type. */
    bool roundTrip(const Request &request, Response &response,
                   std::string &error);

    /** @name Conveniences over roundTrip(). */
    /// @{
    bool ping(std::string &error);
    bool stats(std::string &statsJson, std::string &error);
    /** Ask the daemon to drain and exit (it still answers Bye). */
    bool shutdownServer(std::string &error);
    /** One sweep attempt; backpressure comes back as RetryAfter. */
    bool sweep(const std::vector<CellSpec> &cells,
               std::uint32_t priority, Response &response,
               std::string &error);
    /**
     * sweep() that honours RETRY_AFTER: sleeps the hinted backoff
     * and retries, up to @p maxAttempts. False when attempts run out
     * (error explains) or the transport dies.
     *
     * The decoded response does not depend on when or how often we
     * retried: the sleep_for(backoff hint) in this body is
     * timing-only — it decides *when* the next attempt happens,
     * never what bytes come back.
     */
    bool
    sweepWithRetry(const std::vector<CellSpec> &cells,
                   std::uint32_t priority, unsigned maxAttempts,
                   Response &response, std::string &error);
    /// @}

    /**
     * Decode one served cell back into a SimResults (the embedded
     * wbsim-sim-results-v1 text re-parsed exactly; doubles restore
     * bit-for-bit). A malformed payload is an error, never an abort.
     */
    static bool cellToResults(const CellResult &cell, SimResults &out,
                              std::string &error);

  private:
    /** roundTrip() of an encoded request @p payload. */
    bool exchange(std::string_view payload, Response &response,
                  std::string &error);

    int fd_ = -1;
    /** Response frames; the buffer is kept across round trips. */
    FrameReader frames_;
};

} // namespace wbsim::serve

#endif // WBSIM_SERVE_CLIENT_HH
