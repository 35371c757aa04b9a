/// simmpi communicator tests: point-to-point ordering and typing,
/// collectives against reference results, traffic accounting, and
/// error handling.

#include <gtest/gtest.h>

#include "parallel/comm.hpp"

using namespace sphexa;
using simmpi::Communicator;

TEST(Comm, RejectsBadSize)
{
    EXPECT_THROW(Communicator(0), std::invalid_argument);
    EXPECT_THROW(Communicator(-3), std::invalid_argument);
}

TEST(Comm, PointToPointRoundTrip)
{
    Communicator comm(2);
    std::vector<double> payload{1.5, 2.5, 3.5};
    comm.sendVector<double>(0, 1, "data", payload);
    comm.exchange();
    auto got = comm.receiveVector<double>(1, 0, "data");
    EXPECT_EQ(got, payload);
}

TEST(Comm, MessagesInvisibleBeforeExchange)
{
    Communicator comm(2);
    comm.sendVector<int>(0, 1, "t", std::vector<int>{1});
    EXPECT_FALSE(comm.hasMessage(1, 0, "t"));
    comm.exchange();
    EXPECT_TRUE(comm.hasMessage(1, 0, "t"));
}

TEST(Comm, FifoOrderPerChannel)
{
    Communicator comm(2);
    comm.sendVector<int>(0, 1, "t", std::vector<int>{1});
    comm.sendVector<int>(0, 1, "t", std::vector<int>{2});
    comm.exchange();
    EXPECT_EQ(comm.receiveVector<int>(1, 0, "t")[0], 1);
    EXPECT_EQ(comm.receiveVector<int>(1, 0, "t")[0], 2);
}

TEST(Comm, TagsAreIndependentChannels)
{
    Communicator comm(2);
    comm.sendVector<int>(0, 1, "a", std::vector<int>{7});
    comm.sendVector<int>(0, 1, "b", std::vector<int>{8});
    comm.exchange();
    EXPECT_EQ(comm.receiveVector<int>(1, 0, "b")[0], 8);
    EXPECT_EQ(comm.receiveVector<int>(1, 0, "a")[0], 7);
}

TEST(Comm, ReceiveWithoutMessageThrows)
{
    Communicator comm(2);
    EXPECT_THROW(comm.receive(1, 0, "never"), std::runtime_error);
}

TEST(Comm, BadRankThrows)
{
    Communicator comm(2);
    EXPECT_THROW(comm.send(0, 5, "t", {}), std::out_of_range);
    EXPECT_THROW(comm.send(-1, 1, "t", {}), std::out_of_range);
}

TEST(Comm, EmptyMessageAllowed)
{
    // an empty payload has a null data(), which the typed send and receive
    // must keep away from memcpy; the message still counts, with no bytes
    Communicator comm(2);
    comm.sendVector<double>(0, 1, "empty", std::vector<double>{});
    comm.exchange();
    EXPECT_TRUE(comm.receiveVector<double>(1, 0, "empty").empty());
    EXPECT_EQ(comm.traffic(0).messagesSent, 1u);
    EXPECT_EQ(comm.traffic(0).bytesSent, 0u);
}

TEST(Comm, AllreduceSumMinMax)
{
    Communicator comm(4);
    std::vector<double> contrib{1.0, -2.0, 3.5, 0.5};
    EXPECT_DOUBLE_EQ(comm.allreduceSum<double>(contrib), 3.0);
    EXPECT_DOUBLE_EQ(comm.allreduceMin<double>(contrib), -2.0);
    EXPECT_DOUBLE_EQ(comm.allreduceMax<double>(contrib), 3.5);
}

TEST(Comm, Allgatherv)
{
    Communicator comm(3);
    std::vector<std::vector<int>> contrib{{1, 2}, {}, {3}};
    auto all = comm.allgatherv(contrib);
    EXPECT_EQ(all, (std::vector<int>{1, 2, 3}));
}

TEST(Comm, TrafficCountsBytesAndMessages)
{
    Communicator comm(2);
    std::vector<double> payload(10, 1.0); // 80 bytes
    comm.sendVector<double>(0, 1, "t", payload);
    EXPECT_EQ(comm.traffic(0).messagesSent, 1u);
    EXPECT_EQ(comm.traffic(0).bytesSent, 80u);
    EXPECT_EQ(comm.traffic(1).messagesSent, 0u);
}

TEST(Comm, CollectiveTrafficLogarithmic)
{
    Communicator comm(8);
    std::vector<double> contrib(8, 1.0);
    comm.allreduceSum<double>(contrib);
    // 8 ranks -> 3 rounds of recursive doubling per rank
    EXPECT_EQ(comm.traffic(0).messagesSent, 3u);
    EXPECT_EQ(comm.traffic(0).collectives, 1u);
}

TEST(Comm, ResetTraffic)
{
    Communicator comm(2);
    comm.sendVector<int>(0, 1, "t", std::vector<int>{1});
    comm.resetTraffic();
    EXPECT_EQ(comm.traffic(0).messagesSent, 0u);
    EXPECT_EQ(comm.traffic(0).bytesSent, 0u);
}

TEST(Comm, QuiescenceDetection)
{
    Communicator comm(2);
    EXPECT_TRUE(comm.quiescent());
    comm.sendVector<int>(0, 1, "t", std::vector<int>{1});
    EXPECT_FALSE(comm.quiescent()); // pending
    comm.exchange();
    EXPECT_FALSE(comm.quiescent()); // delivered but unconsumed
    comm.receiveVector<int>(1, 0, "t");
    EXPECT_TRUE(comm.quiescent());
}

TEST(Comm, SelfMessagingWorks)
{
    // rank sending to itself is legal (simplifies all-pairs loops)
    Communicator comm(2);
    comm.sendVector<int>(0, 0, "self", std::vector<int>{9});
    comm.exchange();
    EXPECT_EQ(comm.receiveVector<int>(0, 0, "self")[0], 9);
}
