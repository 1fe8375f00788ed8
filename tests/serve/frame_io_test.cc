/**
 * @file
 * Frame I/O over real sockets: writeFrame sends header and payload
 * with one sendmsg and steps past short writes, and a FrameReader
 * takes frames through a buffer it keeps, whatever way the bytes
 * arrive: a large frame through small socket buffers, a frame
 * trickled over many recvs, two frames in one recv, and a peer that
 * hangs up before a frame or inside one.
 */

#include <gtest/gtest.h>

#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "serve/wire.hh"

namespace wbsim::serve
{
namespace
{

struct SocketPair
{
    int fds[2] = {-1, -1};

    SocketPair()
    {
        EXPECT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds));
    }
    ~SocketPair()
    {
        closeWriter();
        if (fds[1] >= 0)
            ::close(fds[1]);
    }
    int writer() const { return fds[0]; }
    int reader() const { return fds[1]; }
    void
    closeWriter()
    {
        if (fds[0] >= 0)
            ::close(fds[0]);
        fds[0] = -1;
    }
};

/** The frame's bytes as they go on the wire. */
std::string
frameBytes(const std::string &payload)
{
    std::string bytes(kFrameMagic, sizeof kFrameMagic);
    for (int shift = 24; shift >= 0; shift -= 8)
        bytes += char(payload.size() >> shift);
    return bytes + payload;
}

std::string
randomPayload(std::size_t size, std::mt19937_64 &rng)
{
    std::string payload(size, '\0');
    for (char &c : payload)
        c = char(rng());
    return payload;
}

void
sendAll(int fd, const std::string &bytes)
{
    ASSERT_EQ(ssize_t(bytes.size()),
              ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL));
}

extern "C" void
ignoreSignal(int)
{
}

TEST(FrameIo, LargeFramesThroughSmallBuffersWithInterruptedWrites)
{
    SocketPair pair;
    const int small = 4096;
    ASSERT_EQ(0, ::setsockopt(pair.writer(), SOL_SOCKET, SO_SNDBUF, &small,
                              sizeof small));
    ASSERT_EQ(0, ::setsockopt(pair.reader(), SOL_SOCKET, SO_RCVBUF, &small,
                              sizeof small));
    // Signals without SA_RESTART interrupt the writer's sendmsg: it
    // returns what it sent so far (a short write) or EINTR.
    struct sigaction action = {}, previous = {};
    action.sa_handler = ignoreSignal;
    ASSERT_EQ(0, ::sigaction(SIGUSR1, &action, &previous));

    std::mt19937_64 rng(5);
    std::vector<std::string> payloads;
    for (std::size_t size : {std::size_t(1) << 20, std::size_t(0),
                             std::size_t(3), std::size_t(200'000),
                             std::size_t(70'000)})
        payloads.push_back(randomPayload(size, rng));

    std::atomic<bool> written{false};
    bool ok = true;
    std::thread writer([&] {
        for (const std::string &payload : payloads)
            ok = writeFrame(pair.writer(), payload) && ok;
        written = true;
    });
    const pthread_t target = writer.native_handle();
    std::thread pester([&] {
        while (!written) {
            ::pthread_kill(target, SIGUSR1);
            std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
    });
    FrameReader frames;
    for (const std::string &payload : payloads) {
        ASSERT_EQ(FrameResult::Ok, frames.next(pair.reader()));
        EXPECT_TRUE(frames.payload() == payload)
            << "a " << payload.size() << "-byte frame";
    }
    writer.join();
    pester.join();
    ::sigaction(SIGUSR1, &previous, nullptr);
    EXPECT_TRUE(ok);
    pair.closeWriter();
    EXPECT_EQ(FrameResult::Eof, frames.next(pair.reader()));
}

TEST(FrameIo, FrameTrickledOverManyRecvs)
{
    SocketPair pair;
    std::mt19937_64 rng(7);
    const std::string payload = randomPayload(300, rng);
    const std::string bytes = frameBytes(payload) + frameBytes("next");
    std::thread writer([&] {
        for (char c : bytes) {
            ::send(pair.writer(), &c, 1, MSG_NOSIGNAL);
            std::this_thread::sleep_for(std::chrono::microseconds(20));
        }
    });
    FrameReader frames;
    EXPECT_EQ(FrameResult::Ok, frames.next(pair.reader()));
    EXPECT_EQ(payload, frames.payload());
    EXPECT_EQ(FrameResult::Ok, frames.next(pair.reader()));
    EXPECT_EQ("next", frames.payload());
    writer.join();
}

TEST(FrameIo, PipelinedFramesInOneRecv)
{
    SocketPair pair;
    // Both frames and half a third land before the first read; the
    // buffer keeps what follows each frame for the next call.
    std::string third = frameBytes("third frame");
    sendAll(pair.writer(), frameBytes("first") + frameBytes("")
                               + third.substr(0, 6));
    FrameReader first;
    ASSERT_EQ(FrameResult::Ok, first.next(pair.reader()));
    EXPECT_EQ("first", first.payload());
    // The buffered bytes move with the reader; the moved-from one is
    // empty and reads a new connection from scratch.
    FrameReader frames = std::move(first);
    ASSERT_EQ(FrameResult::Ok, frames.next(pair.reader()));
    EXPECT_EQ("", frames.payload());
    SocketPair other;
    sendAll(other.writer(), frameBytes("elsewhere"));
    ASSERT_EQ(FrameResult::Ok, first.next(other.reader()));
    EXPECT_EQ("elsewhere", first.payload());
    sendAll(pair.writer(), third.substr(6));
    ASSERT_EQ(FrameResult::Ok, frames.next(pair.reader()));
    EXPECT_EQ("third frame", frames.payload());
    // A larger frame after small ones grows the kept buffer.
    std::mt19937_64 rng(3);
    const std::string big = randomPayload(50'000, rng);
    std::thread writer([&] { writeFrame(pair.writer(), big); });
    ASSERT_EQ(FrameResult::Ok, frames.next(pair.reader()));
    EXPECT_TRUE(frames.payload() == big);
    writer.join();
}

TEST(FrameIo, EofBeforeAFrameAndInsideOne)
{
    {
        SocketPair pair;
        sendAll(pair.writer(), frameBytes("whole"));
        pair.closeWriter();
        FrameReader frames;
        ASSERT_EQ(FrameResult::Ok, frames.next(pair.reader()));
        EXPECT_EQ("whole", frames.payload());
        EXPECT_EQ(FrameResult::Eof, frames.next(pair.reader()));
    }
    {
        SocketPair pair;
        sendAll(pair.writer(), frameBytes("x").substr(0, 3));
        pair.closeWriter();
        FrameReader frames;
        EXPECT_EQ(FrameResult::Error, frames.next(pair.reader()));
    }
    {
        SocketPair pair;
        sendAll(pair.writer(), frameBytes("payload").substr(0, 10));
        pair.closeWriter();
        FrameReader frames;
        EXPECT_EQ(FrameResult::Error, frames.next(pair.reader()));
    }
}

TEST(FrameIo, BadMagicAndOversizedFrames)
{
    SocketPair pair;
    sendAll(pair.writer(), "HTTP/1.1 GET /");
    FrameReader frames;
    EXPECT_EQ(FrameResult::BadMagic, frames.next(pair.reader()));

    SocketPair big;
    sendAll(big.writer(), std::string(kFrameMagic, 4) + "\xff\xff\xff\xff");
    FrameReader capped(1024);
    EXPECT_EQ(FrameResult::TooLarge, capped.next(big.reader()));
}

} // namespace
} // namespace wbsim::serve
