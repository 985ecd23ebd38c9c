#include "net/fabric.h"

#include <cassert>
#include <memory>
#include <utility>

#include "telemetry/trace.h"

namespace draid::net {

Fabric::Fabric(sim::Simulator &sim, sim::Ticks propagation)
    : sim_(sim), propagation_(propagation)
{
}

void
Fabric::attach(sim::NodeId node, Nic &nic, Endpoint *endpoint)
{
    assert(!ports_.contains(node));
    ports_[node] = Port{&nic, endpoint, sim::Ticks::zero()};
}

void
Fabric::setEndpoint(sim::NodeId node, Endpoint *endpoint)
{
    ports_.at(node).endpoint = endpoint;
}

sim::Ticks
Fabric::delayFor(sim::NodeId a, sim::NodeId b) const
{
    sim::Ticks d = propagation_;
    auto ia = ports_.find(a);
    if (ia != ports_.end())
        d += ia->second.extraDelay;
    auto ib = ports_.find(b);
    if (ib != ports_.end())
        d += ib->second.extraDelay;
    return d;
}

void
Fabric::transferPair(sim::NodeId src, sim::NodeId dst, std::uint64_t bytes,
                     std::uint64_t trace, sim::EventFn done)
{
    auto &sp = ports_.at(src);
    auto &dp = ports_.at(dst);
    const sim::Ticks delay = delayFor(src, dst);

    // Both port directions are charged the full transfer; completion waits
    // for the later of the two (cut-through forwarding).
    auto remaining = std::make_shared<int>(2);
    auto joint = [this, remaining, delay, src, trace,
                  done = std::move(done)]() mutable {
        if (--*remaining != 0)
            return;
        if (trace != 0 && tracer_ && tracer_->active()) {
            tracer_->recordSpan({.traceId = trace,
                                 .node = src,
                                 .lane = "fabric",
                                 .name = "fabric.prop",
                                 .start = sim_.now().raw(),
                                 .end = (sim_.now() + delay).raw()});
        }
        sim_.schedule(delay, "fabric.prop", std::move(done));
    };
    sp.nic->tx().transfer(bytes, trace, joint);
    dp.nic->rx().transfer(bytes, trace, joint);
}

void
Fabric::send(Message msg)
{
    assert(ports_.contains(msg.from) && ports_.contains(msg.to));
    if (down_.contains(msg.from) || down_.contains(msg.to)) {
        ++dropped_;
        return;
    }
    const std::uint32_t wire = msg.capsule.wireSize();
    const sim::NodeId to = msg.to;
    transferPair(msg.from, to, wire, msg.capsule.traceId,
                 [this, to, msg = std::move(msg)]() {
                     // The destination may have gone down in flight.
                     if (down_.contains(to)) {
                         ++dropped_;
                         return;
                     }
                     ++delivered_;
                     auto *ep = ports_.at(to).endpoint;
                     if (ep)
                         ep->onMessage(msg);
                 });
}

void
Fabric::rdmaRead(sim::NodeId initiator, sim::NodeId target,
                 std::uint64_t bytes, sim::EventFn done, std::uint64_t trace)
{
    if (down_.contains(initiator) || down_.contains(target)) {
        ++dropped_;
        return;
    }
    // Data flows target -> initiator.
    transferPair(target, initiator, bytes, trace, std::move(done));
}

void
Fabric::rdmaWrite(sim::NodeId initiator, sim::NodeId target,
                  std::uint64_t bytes, sim::EventFn done, std::uint64_t trace)
{
    if (down_.contains(initiator) || down_.contains(target)) {
        ++dropped_;
        return;
    }
    transferPair(initiator, target, bytes, trace, std::move(done));
}

void
Fabric::setNodeDown(sim::NodeId node, bool down)
{
    if (down)
        down_.insert(node);
    else
        down_.erase(node);
}

bool
Fabric::isDown(sim::NodeId node) const
{
    return down_.contains(node);
}

void
Fabric::setExtraDelay(sim::NodeId node, sim::Ticks delay)
{
    ports_.at(node).extraDelay = delay;
}

void
Fabric::bindTrace(telemetry::Tracer *tracer)
{
    tracer_ = tracer;
}

Nic &
Fabric::nicOf(sim::NodeId node)
{
    return *ports_.at(node).nic;
}

} // namespace draid::net
