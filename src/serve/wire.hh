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
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hh"
#include "sim/machine_config.hh"
#include "util/lint.hh"
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

/**
 * Read one frame from @p fd into @p payload. Blocks; retries EINTR.
 * On BadMagic/TooLarge the connection is poisoned (the stream can no
 * longer be re-synchronised) — the caller should answer with an
 * error frame and close.
 */
FrameResult readFrame(int fd, std::string &payload,
                      std::size_t maxBytes = kDefaultMaxFrameBytes);

/** Write one frame to @p fd. Blocks; retries EINTR. False on any
 *  socket error (the peer has gone; there is nobody to tell). */
bool writeFrame(int fd, std::string_view payload);

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
 *  machine. The decoder reads either a parsed tree or, on the wire
 *  path, the object that is a reader's next value; both apply the
 *  same field list and checks. */
/// @{
void machineConfigToJson(obs::JsonWriter &json,
                         const MachineConfig &machine);
bool machineConfigFromJson(const obs::JsonValue &value,
                           MachineConfig &out, std::string &error);
bool machineConfigFromJson(obs::JsonReader &json, MachineConfig &out,
                           std::string &error);
/// @}

/** @name Frame payload encode/decode. Decoders are strict and
 *  non-fatal: false + @p error on anything unexpected. They read the
 *  payload in one pass with obs::JsonReader and build no tree. Encoders are
 *  deterministic roots: the on-wire bytes for a given message must
 *  never depend on clocks, RNG, or hash order (WL-DETERMINISM) —
 *  sweep responses are compared byte-for-byte against local runs. */
/// @{
WBSIM_DETERMINISTIC std::string encodeRequest(const Request &request);
bool decodeRequest(const std::string &payload, Request &out,
                   std::string &error);
WBSIM_DETERMINISTIC std::string
encodeResponse(const Response &response);
bool decodeResponse(const std::string &payload, Response &out,
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
WBSIM_DETERMINISTIC std::string
encodeResultToken(std::string_view resultJson);

/** A Results payload carrying @p cells in order. */
WBSIM_DETERMINISTIC std::string
encodeResults(const std::vector<ResultCellView> &cells);
/// @}

} // namespace wbsim::serve

#endif // WBSIM_SERVE_WIRE_HH
