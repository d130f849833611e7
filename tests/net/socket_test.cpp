// Deadline and peer-liveness behaviour of the raw socket layer. The
// load-bearing property is that no call can outlast its deadline: every
// fd is O_NONBLOCK, so a peer that stops reading (without closing) stalls
// the sender at poll() — where the deadline fires — never inside send().
#include "net/socket.h"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

namespace vdbench::net {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

class SocketTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (fs::temp_directory_path() /
             ("vdsocket_test_" +
              std::string(::testing::UnitTest::GetInstance()
                              ->current_test_info()
                              ->name()) +
              ".sock"))
                .string();
    fs::remove(path_);
  }

  void TearDown() override { fs::remove(path_); }

  std::string path_;
};

// Non-blocking liveness probe: a deadline already passed.
bool peer_gone(const Socket& socket) {
  return socket.wait_hangup(-1, std::chrono::steady_clock::now()) ==
         HangupWait::kPeerGone;
}

TEST_F(SocketTest, WriteToAStalledPeerExpiresAtTheDeadlineNotInSend) {
  Listener listener(path_);
  Socket client = connect_unix(path_);
  std::optional<Socket> server = listener.accept_one();
  ASSERT_TRUE(server.has_value());

  // The peer never reads, so the kernel buffer fills and write_all must
  // ride the poll() deadline out. A blocking send here would hang the
  // test forever instead of throwing.
  const std::vector<char> block(1 << 20, 'x');
  const auto start = std::chrono::steady_clock::now();
  const Deadline deadline = start + 200ms;
  EXPECT_THROW(
      {
        for (int i = 0; i < 64; ++i)
          client.write_all(block.data(), block.size(), deadline);
      },
      TransportError);
  EXPECT_LT(std::chrono::steady_clock::now() - start, 5s);
}

TEST_F(SocketTest, ReadFromASilentPeerExpiresAtTheDeadline) {
  Listener listener(path_);
  Socket client = connect_unix(path_);
  std::optional<Socket> server = listener.accept_one();
  ASSERT_TRUE(server.has_value());

  char byte;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(client.read_exact(&byte, 1, start + 100ms), TransportError);
  EXPECT_LT(std::chrono::steady_clock::now() - start, 5s);
}

TEST_F(SocketTest, PeerClosedSeesBothOrderlyShutdownAndReset) {
  Listener listener(path_);
  Socket client = connect_unix(path_);
  std::optional<Socket> server = listener.accept_one();
  ASSERT_TRUE(server.has_value());

  EXPECT_FALSE(peer_gone(client));

  // Close with unread data in flight: depending on the kernel this
  // surfaces as EOF or ECONNRESET — both must read as "peer gone" (a
  // reset used to be misclassified as alive because recv returns -1).
  const char probe = 'p';
  client.write_all(&probe, 1, std::chrono::steady_clock::now() + 1s);
  server->close();
  EXPECT_TRUE(peer_gone(client));
}

TEST_F(SocketTest, HangUpBehindUnreadBytesReadsAsPeerGone) {
  Listener listener(path_);
  Socket client = connect_unix(path_);
  std::optional<Socket> server = listener.accept_one();
  ASSERT_TRUE(server.has_value());

  const std::string trailing = "unread";
  client.write_all(trailing.data(), trailing.size(),
                   std::chrono::steady_clock::now() + 1s);
  EXPECT_FALSE(peer_gone(*server));  // pending data is not a hang-up
  client.close();
  EXPECT_TRUE(peer_gone(*server));
}

TEST_F(SocketTest, WaitHangupEndsOnWakeDeadlineOrPeerClose) {
  Listener listener(path_);
  Socket client = connect_unix(path_);
  std::optional<Socket> server = listener.accept_one();
  ASSERT_TRUE(server.has_value());

  int wake[2];
  ASSERT_EQ(::pipe(wake), 0);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(server->wait_hangup(wake[0], start + 50ms), HangupWait::kDeadline);
  EXPECT_GE(std::chrono::steady_clock::now() - start, 50ms);

  const char byte = 'w';
  ASSERT_EQ(::write(wake[1], &byte, 1), 1);
  EXPECT_EQ(server->wait_hangup(wake[0], no_deadline()), HangupWait::kWoken);

  ::close(wake[0]);
  ::close(wake[1]);
  client.close();
  EXPECT_EQ(server->wait_hangup(-1, no_deadline()), HangupWait::kPeerGone);
}

}  // namespace
}  // namespace vdbench::net
