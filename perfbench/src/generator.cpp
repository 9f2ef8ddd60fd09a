#include "generator.hpp"

#include <cmath>
#include <future>

namespace pb {

namespace {

using namespace std::chrono_literals;

constexpr Nanos kMinTickNs = 50'000;  // the pacer never wakes more often
constexpr int kConnectBurst = 200;    // subscribers started per 2 ms

}  // namespace

Fleet::Fleet(const WorkloadSpec& spec, const Plan& plan, Target& target,
             int setupIndex, bool tracing, FaultInjection inject)
    : spec_(spec),
      plan_(plan),
      target_(target),
      setupIndex_(setupIndex),
      tracing_(tracing),
      inject_(inject),
      topicRng_(plan.TopicRng()),
      perTopic_(static_cast<std::size_t>(spec.topics), 0) {
  for (int i = 0; i < spec_.subLoops; ++i) {
    subLoops_.push_back(std::make_unique<md::EpollLoop>());
    subRecs_.push_back(std::make_unique<Recorder>());
  }
  pubLoop_ = std::make_unique<md::EpollLoop>();
  for (auto& loop : subLoops_) {
    threads_.emplace_back([l = loop.get()] { l->Run(); });
  }
  threads_.emplace_back([l = pubLoop_.get()] { l->Run(); });
}

Fleet::~Fleet() { Stop(); }

void Fleet::RunOn(md::EpollLoop& loop, const std::function<void()>& fn) {
  std::promise<void> done;
  loop.Post([&] {
    fn();
    done.set_value();
  });
  done.get_future().wait();
}

bool Fleet::Connect(Nanos timeout) {
  const Nanos deadline = NowNs() + timeout;
  const std::vector<std::uint16_t> ports = target_.ClientPorts();
  const std::string prefix = "pb" + std::to_string(setupIndex_) + "-";

  for (int s = 0; s < spec_.subscribers; ++s) {
    auto sub = std::make_unique<Sub>();
    sub->index = s;
    const auto loopIndex = static_cast<std::size_t>(s % spec_.subLoops);
    sub->rec = subRecs_[loopIndex].get();
    for (std::uint32_t t : plan_.SubscriberTopics(s)) {
      StreamCheck check;
      check.topic = t;
      sub->streams.push_back(check);
    }
    md::client::ClientConfig cfg;
    cfg.servers = {{"127.0.0.1",
                    ports[static_cast<std::size_t>(plan_.SubscriberMember(s))],
                    1.0, {}}};
    cfg.clientId = prefix + "s" + std::to_string(s);
    cfg.autoReconnect = false;
    cfg.seed = plan_.seed() * 1'000'003 + static_cast<std::uint64_t>(s);
    sub->client = std::make_unique<md::client::Client>(*subLoops_[loopIndex], cfg);
    Sub* raw = sub.get();
    subLoops_[loopIndex]->Post([this, raw] {
      raw->client->SetDeliveryObserver(
          [this, raw](const md::Message& m, bool duplicate) {
            OnDeliver(*raw, m, duplicate);
          });
      for (const StreamCheck& st : raw->streams) {
        raw->client->Subscribe(plan_.TopicName(st.topic), {},
                               [this] { subscribed_.fetch_add(1); });
      }
      raw->client->Start();
    });
    subs_.push_back(std::move(sub));
    if (s % kConnectBurst == kConnectBurst - 1) std::this_thread::sleep_for(2ms);
  }

  for (int p = 0; p < spec_.publisherConns; ++p) {
    md::client::ClientConfig cfg;
    cfg.servers = {{"127.0.0.1", ports[0], 1.0, {}}};
    cfg.clientId = prefix + "p" + std::to_string(p);
    cfg.autoReconnect = false;
    // Acks slower than this would trigger at-least-once republishes; the
    // ladder's overloaded steps must not turn into duplicate traffic.
    cfg.ackTimeout = 30 * md::kSecond;
    cfg.seed = plan_.seed() * 7 + static_cast<std::uint64_t>(p);
    pubs_.push_back(std::make_unique<md::client::Client>(*pubLoop_, cfg));
    md::client::Client* raw = pubs_.back().get();
    pubLoop_->Post([this, raw] {
      raw->SetConnectionListener([this](bool up) {
        if (up) pubsUp_.fetch_add(1);
      });
      raw->Start();
    });
  }

  while (subscribed_.load() < plan_.TotalSubscriptions() ||
         pubsUp_.load() < spec_.publisherConns) {
    if (NowNs() > deadline) return false;
    std::this_thread::sleep_for(1ms);
  }
  return true;
}

bool Fleet::Prime(Nanos timeout) {
  RunOn(*pubLoop_, [this] {
    for (std::uint32_t t = 0; t < static_cast<std::uint32_t>(spec_.topics); ++t) {
      if (plan_.Audience(t) > 0) PublishOne(t, NowNs(), kWarmPhase);
    }
  });
  return AwaitPhase(kWarmPhase, timeout);
}

void Fleet::OnDeliver(Sub& sub, const md::Message& m, bool duplicate) {
  const Nanos now = NowNs();
  if (sub.index == 0 && !duplicate &&
      (inject_.dropNth >= 0 || inject_.duplicateNth >= 0)) {
    const std::int64_t n = sub.receipts++;
    if (n == inject_.dropNth) return;
    if (n == inject_.duplicateNth) Observe(sub, m, duplicate, now);
  }
  Observe(sub, m, duplicate, now);
}

void Fleet::Observe(Sub& sub, const md::Message& m, bool duplicate, Nanos now) {
  Recorder& rec = *sub.rec;
  rec.frames.Inc();
  StreamCheck* stream = nullptr;
  for (StreamCheck& st : sub.streams) {
    if (plan_.TopicName(st.topic) == m.topic) stream = &st;
  }
  if (stream == nullptr) {
    ++rec.faults.misrouted;
    return;
  }
  PayloadHeader h;
  const bool intact = plan_.CheckPayload(m.payload, h);
  if (!intact) {
    ++rec.faults.corrupt;
  } else if (h.topic != stream->topic) {
    ++rec.faults.misrouted;
  }
  const Verdict verdict = pb::Observe(*stream, m.epoch, m.seq, duplicate);
  if (verdict == Verdict::kDuplicate) {
    ++rec.faults.duplicates;
    return;
  }
  if (verdict == Verdict::kGap) ++rec.faults.gaps;
  if (!intact || h.phase >= kMaxPhases) return;

  rec.received[h.phase].Inc();
  const Nanos latency = now - h.intended;
  if (h.phase == kNominalPhase) {
    rec.nominalDeliver.push_back({h.intended, latency});
    if (tracing_) {
      rec.spans.push_back({h.id, h.intended, now,
                           static_cast<std::uint32_t>(sub.index),
                           SpanKind::kReceipt});
    }
  } else if (h.phase >= kFirstStep) {
    rec.deliver[h.phase].Record(latency);
  }
}

void Fleet::OnAck(const PayloadHeader& h, const md::Status& s) {
  const Nanos now = NowNs();
  if (!s.ok()) {
    ++pubRec_.faults.ackFailed;
    return;
  }
  pubRec_.acked[h.phase].Inc();
  pubRec_.lastAck[h.phase] = now;
  const Nanos latency = now - h.intended;
  if (h.phase == kNominalPhase) {
    pubRec_.nominalAck.push_back({h.intended, latency});
    if (tracing_) {
      pubRec_.spans.push_back({h.id, h.intended, now,
                               static_cast<std::uint32_t>(h.id % pubs_.size()),
                               SpanKind::kAck});
    }
  } else if (h.phase >= kFirstStep) {
    pubRec_.ack[h.phase].Record(latency);
  }
}

void Fleet::PublishOne(std::uint32_t topic, Nanos intended, int phase) {
  PayloadHeader h;
  h.intended = intended;
  h.id = nextId_++;
  h.topic = topic;
  h.phase = static_cast<std::uint8_t>(phase);
  md::Bytes payload;
  plan_.FillPayload(h, payload);

  // Counted before the send, so no receipt is ever seen ahead of its count.
  ++perTopic_[topic];
  published_[static_cast<std::size_t>(phase)].Inc();
  expected_[static_cast<std::size_t>(phase)].Inc(plan_.Audience(topic));

  md::client::Client& conn = *pubs_[h.id % pubs_.size()];
  const Nanos before = NowNs();
  conn.Publish(plan_.TopicName(topic), std::move(payload),
               [this, h](md::Status s) { OnAck(h, s); });
  const Nanos late = before - intended;
  if (phase == kNominalPhase) {
    pubRec_.nominalLate.push_back({intended, late});
    if (tracing_) {
      pubRec_.spans.push_back({h.id, before, NowNs(),
                               static_cast<std::uint32_t>(h.id % pubs_.size()),
                               SpanKind::kPublishCall});
    }
  } else if (phase >= kFirstStep) {
    pubRec_.late[static_cast<std::size_t>(phase)].Record(late);
  }
}

void Fleet::Pump() {
  pumpPending_.store(false, std::memory_order_relaxed);
  if (!sched_.open) return;
  Nanos now = NowNs();
  while (sched_.sent < sched_.total) {
    const Nanos intended =
        sched_.t0 + static_cast<Nanos>(static_cast<double>(sched_.sent) *
                                       sched_.intervalNs);
    if (intended > now) break;
    PublishOne(plan_.NextTopic(topicRng_), intended, sched_.phase);
    ++sched_.sent;
    if ((sched_.sent & 31) == 0) now = NowNs();
  }
}

Fleet::PhaseRun Fleet::RunPhase(int phase, double rate, double seconds,
                                const std::function<bool()>& onTick) {
  PhaseRun run;
  run.t0 = NowNs() + 1'000'000;
  run.scheduled = static_cast<std::uint64_t>(std::llround(rate * seconds));
  const double interval = 1e9 / rate;
  const Nanos t0 = run.t0;
  const Nanos end = t0 + static_cast<Nanos>(seconds * 1e9);
  pubLoop_->Post([this, phase, t0, interval, total = run.scheduled] {
    sched_ = Schedule{true, phase, t0, interval, total, 0};
  });

  auto pump = [this] {
    if (!pumpPending_.exchange(true, std::memory_order_relaxed)) {
      pubLoop_->Post([this] { Pump(); });
    }
  };
  for (;;) {
    const Nanos now = NowNs();
    if (now >= end) break;
    std::uint64_t due = 0;
    if (now >= t0) {
      due = std::min<std::uint64_t>(
          run.scheduled,
          static_cast<std::uint64_t>(static_cast<double>(now - t0) / interval) + 1);
      pump();
    }
    const Nanos next = t0 + static_cast<Nanos>(static_cast<double>(due) * interval);
    SleepUntil(std::min(end, std::max(next, now + kMinTickNs)));
    if (onTick && !onTick()) {
      run.stoppedEarly = true;
      break;
    }
  }
  pump();
  // Let the publisher loop finish what was due; a generator that cannot keep
  // up gets a short grace, then the rest of its schedule is abandoned.
  const Nanos grace = NowNs() + (run.stoppedEarly ? 0 : 100'000'000);
  std::uint64_t sent = 0;
  for (;;) {
    RunOn(*pubLoop_, [&] { sent = sched_.sent; });
    if (sent >= run.scheduled || NowNs() > grace) break;
    pump();
    std::this_thread::sleep_for(1ms);
  }
  RunOn(*pubLoop_, [&] {
    if (!run.stoppedEarly) Pump();
    sched_.open = false;
    sent = sched_.sent;
  });
  run.sent = sent;
  return run;
}

bool Fleet::AwaitPhase(int phase, Nanos timeout) {
  const Nanos deadline = NowNs() + timeout;
  const auto p = static_cast<std::size_t>(phase);
  for (;;) {
    std::uint64_t received = 0;
    for (const auto& rec : subRecs_) received += rec->received[p].Get();
    std::uint64_t acks = 0;
    RunOn(*pubLoop_, [&] { acks = pubRec_.acked[p].Get() + pubRec_.faults.ackFailed; });
    if (received >= expected_[p].Get() && acks >= published_[p].Get()) return true;
    if (NowNs() > deadline) return false;
    std::this_thread::sleep_for(1ms);
  }
}

bool Fleet::AwaitAll(Nanos timeout) {
  const Nanos deadline = NowNs() + timeout;
  for (int p = 0; p < kMaxPhases; ++p) {
    if (!AwaitPhase(p, std::max<Nanos>(0, deadline - NowNs()))) return false;
  }
  return true;
}

PhaseView Fleet::View(int phase) {
  const auto p = static_cast<std::size_t>(phase);
  PhaseView view;
  auto faultsOf = [](const Recorder& r) {
    return r.faults.duplicates + r.faults.corrupt + r.faults.misrouted +
           r.faults.ackFailed;
  };
  for (std::size_t i = 0; i < subLoops_.size(); ++i) {
    RunOn(*subLoops_[i], [&] {
      view.deliver.Merge(subRecs_[i]->deliver[p]);
      view.received += subRecs_[i]->received[p].Get();
      view.faults += faultsOf(*subRecs_[i]);
    });
  }
  RunOn(*pubLoop_, [&] {
    view.ack.Merge(pubRec_.ack[p]);
    view.late.Merge(pubRec_.late[p]);
    view.acked = pubRec_.acked[p].Get();
    view.lastAck = pubRec_.lastAck[p];
    view.faults += faultsOf(pubRec_);
  });
  view.published = published_[p].Get();
  view.expected = expected_[p].Get();
  return view;
}

std::uint64_t Fleet::Received(int phase) const {
  std::uint64_t sum = 0;
  for (const auto& rec : subRecs_) {
    sum += rec->received[static_cast<std::size_t>(phase)].Get();
  }
  return sum;
}

void Fleet::StallPublisher(Nanos ns) {
  pubLoop_->Post([ns] { std::this_thread::sleep_for(std::chrono::nanoseconds(ns)); });
}

Nanos Fleet::GeneratorCpuNs() const {
  Nanos sum = CpuNs(CLOCK_THREAD_CPUTIME_ID);
  if (stopped_) return sum;
  for (const std::thread& t : threads_) {
    sum += CpuNs(ThreadCpuClock(const_cast<std::thread&>(t).native_handle()));
  }
  return sum;
}

Nanos Fleet::SubscriberCpuNs() const {
  Nanos sum = 0;
  if (stopped_) return sum;
  for (std::size_t i = 0; i < subLoops_.size(); ++i) {
    sum += CpuNs(ThreadCpuClock(const_cast<std::thread&>(threads_[i]).native_handle()));
  }
  return sum;
}

void Fleet::Stop() {
  if (stopped_) return;
  stopped_ = true;
  for (auto& sub : subs_) {
    auto* loop = subLoops_[static_cast<std::size_t>(sub->index % spec_.subLoops)].get();
    loop->Post([c = sub->client.get()] { c->Stop(); });
  }
  for (auto& pub : pubs_) {
    pubLoop_->Post([c = pub.get()] { c->Stop(); });
  }
  for (auto& loop : subLoops_) loop->Stop();
  pubLoop_->Stop();
  for (std::thread& t : threads_) t.join();
  for (const auto& sub : subs_) {
    for (const StreamCheck& st : sub->streams) {
      const std::uint64_t want = perTopic_[st.topic];
      if (st.received < want) missing_ += want - st.received;
      if (st.received > want) extra_ += st.received - want;
    }
  }
  // Clients go before their loops (members are destroyed in reverse order).
  subs_.clear();
  pubs_.clear();
}

OracleInputs Fleet::Oracle(std::uint64_t serverDelivered) const {
  OracleInputs in;
  for (const auto& p : published_) in.publishes += p.Get();
  for (const auto& e : expected_) in.expectedDeliveries += e.Get();
  for (const auto& a : pubRec_.acked) in.ackedOk += a.Get();
  in.faults.Add(pubRec_.faults);
  for (const auto& rec : subRecs_) {
    in.frames += rec->frames.Get();
    in.faults.Add(rec->faults);
  }
  in.missing = missing_;
  in.extra = extra_;
  in.serverDelivered = serverDelivered;
  return in;
}

std::vector<const Recorder*> Fleet::Recorders() const {
  std::vector<const Recorder*> out;
  for (const auto& rec : subRecs_) out.push_back(rec.get());
  out.push_back(&pubRec_);
  return out;
}

}  // namespace pb
