/**
 * @file
 * The wbsim-serve wire protocol: length-prefixed JSON frames over a
 * stream socket.
 *
 * Every frame is `"WBS1" + uint32 big-endian payload length + payload`
 * where the payload is one UTF-8 JSON document. Requests use schema
 * wbsim-serve-req-v1, responses wbsim-serve-resp-v1; a peer speaking
 * any other schema (or garbage) gets a typed error response, never a
 * crash — everything in this header is non-fatal by design, because
 * the bytes come from the network.
 *
 * Per-cell results travel as the *exact text* of a
 * wbsim-sim-results-v1 document (writeSimResultsJson), embedded as a
 * JSON string. That makes "a served result is byte-identical to a
 * local run" a protocol property rather than a hope: the loopback
 * tests compare the embedded text against writeSimResultsJson output
 * with memcmp semantics.
 */

#ifndef WBSIM_SERVE_WIRE_HH
#define WBSIM_SERVE_WIRE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/json.hh"
#include "sim/machine_config.hh"
#include "util/types.hh"

namespace wbsim::serve
{

/** Frame magic; rejects peers that are not speaking wbsim-serve. */
inline constexpr char kFrameMagic[4] = {'W', 'B', 'S', '1'};

/** Default per-frame payload cap: large enough for thousand-cell
 *  sweeps, small enough that a hostile length prefix cannot OOM the
 *  daemon. */
inline constexpr std::size_t kDefaultMaxFrameBytes = 8u << 20;

/** Request schema tag. */
inline constexpr const char *kRequestSchema = "wbsim-serve-req-v1";
/** Response schema tag. */
inline constexpr const char *kResponseSchema = "wbsim-serve-resp-v1";

/** Outcome of reading one frame from a socket. */
enum class FrameResult : std::uint8_t
{
    Ok,       //!< payload holds one complete frame body
    Eof,      //!< orderly close before any frame byte
    BadMagic, //!< peer is not speaking wbsim-serve
    TooLarge, //!< length prefix exceeds the cap
    Error,    //!< short read / socket error mid-frame
};

const char *frameResultName(FrameResult result);

/** Write one frame to @p fd: header and payload in one sendmsg, no
 *  copy. Blocks; retries EINTR and short writes. False on any socket
 *  error (the peer has gone; there is nobody to tell). */
bool writeFrame(int fd, std::string_view payload);

/**
 * The frames of one connection, read through a buffer that keeps its
 * capacity: a frame that has arrived whole is taken with one recv,
 * and bytes of the next frame that came with it wait for the next
 * call. On BadMagic/TooLarge the connection is poisoned (the stream
 * can no longer be re-synchronised): the caller should answer with an
 * error frame and close. The connection's reader (server) or the
 * client's owns one.
 */
class FrameReader
{
  public:
    explicit FrameReader(std::size_t maxBytes = kDefaultMaxFrameBytes)
        : maxBytes_(maxBytes)
    {
    }
    /** A moved-from reader is empty (its buffer went with the move). */
    FrameReader(FrameReader &&other) noexcept { *this = std::move(other); }
    FrameReader &
    operator=(FrameReader &&other) noexcept
    {
        maxBytes_ = other.maxBytes_;
        buffer_ = std::move(other.buffer_);
        capacity_ = std::exchange(other.capacity_, 0);
        begin_ = std::exchange(other.begin_, 0);
        end_ = std::exchange(other.end_, 0);
        payload_ = std::exchange(other.payload_, {});
        return *this;
    }

    /** Read the next frame from @p fd. Blocks; retries EINTR. On Ok,
     *  payload() views its body until the next call. */
    FrameResult next(int fd);
    std::string_view payload() const { return payload_; }
    /** Drop buffered bytes (the connection changed). */
    void reset() { begin_ = end_ = 0; }

  private:
    /** Receive until @p bytes are buffered past begin_: Ok, Eof (the
     *  peer closed with nothing buffered) or Error. */
    FrameResult fill(int fd, std::size_t bytes);

    std::size_t maxBytes_;
    std::unique_ptr<char[]> buffer_;
    std::size_t capacity_ = 0;
    /** Unread bytes are buffer_[begin_, end_). */
    std::size_t begin_ = 0;
    std::size_t end_ = 0;
    std::string_view payload_;
};

/** What a request asks the server to do. */
enum class RequestType : std::uint8_t
{
    Sweep,    //!< simulate a batch of cells
    Ping,     //!< liveness probe
    Stats,    //!< server/cache/queue counters
    Shutdown, //!< ask the daemon to drain and exit
};

const char *requestTypeName(RequestType type);
bool tryParseRequestType(std::string_view name, RequestType &out);

/** One (benchmark, machine, run-length, seed) grid cell. */
struct CellSpec
{
    std::string benchmark;
    std::uint64_t seed = 1;
    Count instructions = 0;
    Count warmup = 0;
    MachineConfig machine;
};

/** One decoded request frame. */
struct Request
{
    RequestType type = RequestType::Ping;
    /** Dispatch priority (higher first under the priority
     *  discipline; ignored under FCFS). */
    std::uint32_t priority = 0;
    /** Sweep cells (type == Sweep only). */
    std::vector<CellSpec> cells;
};

/** How the server answered. */
enum class ResponseType : std::uint8_t
{
    Results,    //!< one CellResult per requested cell, in order
    Pong,       //!< ping answer
    Stats,      //!< statsJson holds a wbsim-serve-stats-v1 document
    RetryAfter, //!< admission queue full; back off retryAfterMs
    Error,      //!< request was malformed or invalid
    Bye,        //!< shutdown acknowledged
};

const char *responseTypeName(ResponseType type);
bool tryParseResponseType(std::string_view name, ResponseType &out);

/** One simulated cell in a Results response. */
struct CellResult
{
    std::string benchmark;
    /** Exact wbsim-sim-results-v1 document text for this cell —
     *  byte-identical to writeSimResultsJson() run locally. */
    std::string resultJson;
    /** Whether the server's result store already held this cell. */
    bool cacheHit = false;
};

/** One decoded response frame. */
struct Response
{
    ResponseType type = ResponseType::Error;
    std::vector<CellResult> cells;
    /** Backoff hint (RetryAfter only), milliseconds. */
    std::uint32_t retryAfterMs = 0;
    /** Human-readable cause (Error only). */
    std::string error;
    /** wbsim-serve-stats-v1 document text (Stats only). */
    std::string statsJson;
};

/** @name Machine configuration <-> JSON.
 *  The encoding covers every MachineConfig/WriteBufferConfig field.
 *  Decoding accepts partial objects (absent fields keep the baseline
 *  defaults) but rejects unknown keys and type mismatches, so a
 *  client typo fails loudly instead of silently simulating the wrong
 *  machine. The decoder reads the object that is a reader's next
 *  value. */
/// @{
void machineConfigToJson(obs::JsonWriter &json,
                         const MachineConfig &machine);
bool machineConfigFromJson(obs::JsonReader &json, MachineConfig &out,
                           std::string &error);
/// @}

/** @name Frame payload encode/decode. Decoders are strict and
 *  non-fatal: false + @p error on anything unexpected. They read the
 *  payload in one pass with obs::JsonReader and build no tree. The
 *  on-wire bytes for a given message never depend on clocks, RNG,
 *  or hash order: the serve goldens pin them, and sweep responses
 *  are compared byte-for-byte against local runs. */
/// @{
std::string encodeRequest(const Request &request);
/** encodeRequest() of a sweep of @p cells, without copying them into
 *  a Request. */
std::string encodeSweepRequest(std::uint32_t priority,
                               const std::vector<CellSpec> &cells);
bool decodeRequest(std::string_view payload, Request &out,
                   std::string &error);
std::string
encodeResponse(const Response &response);
bool decodeResponse(std::string_view payload, Response &out,
                    std::string &error);
/// @}

/** @name Results from encoded cell tokens.
 *  A cell's *token* is its result_json value exactly as it goes on
 *  the wire: the document as a JSON string literal, quotes and
 *  escapes included. The server renders a cell's token once and
 *  stores it, so a store hit appends stored bytes (DESIGN.md §13).
 *  encodeResponse() makes each CellResult's token with
 *  encodeResultToken() and writes the payload with encodeResults(),
 *  so a client-built response and a server-assembled one can never
 *  drift. */
/// @{
/** One Results cell by reference; @p token must outlive the view. */
struct ResultCellView
{
    std::string_view benchmark;
    bool cacheHit = false;
    std::string_view token;
};

/** The token of the document @p resultJson. */
std::string
encodeResultToken(std::string_view resultJson);

/** A Results payload carrying @p cells in order. */
std::string
encodeResults(const std::vector<ResultCellView> &cells);
/// @}

} // namespace wbsim::serve

#endif // WBSIM_SERVE_WIRE_HH
