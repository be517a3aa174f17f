#include "tracer.hh"

#include <chrono>
#include <ctime>

#include "util/json.hh"

namespace perfbench
{

namespace
{

double
cpuSeconds(clockid_t clock)
{
    timespec ts{};
    clock_gettime(clock, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

} // namespace

std::int64_t
nowNs()
{
    static const auto epoch = std::chrono::steady_clock::now();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch)
        .count();
}

double
threadCpuSeconds()
{
    return cpuSeconds(CLOCK_THREAD_CPUTIME_ID);
}

double
processCpuSeconds()
{
    return cpuSeconds(CLOCK_PROCESS_CPUTIME_ID);
}

int
Tracer::begin(const std::string &name, int parent)
{
    if (!enabled)
        return root;
    std::int64_t t = nowNs();
    std::lock_guard<std::mutex> lock(m);
    spans.push_back(Span{name, parent, t, -1});
    return static_cast<int>(spans.size() - 1);
}

void
Tracer::end(int id)
{
    if (!enabled || id == root)
        return;
    std::int64_t t = nowNs();
    std::lock_guard<std::mutex> lock(m);
    spans[static_cast<std::size_t>(id)].end = t;
}

void
Tracer::aggregate(const std::string &name, int parent,
                  std::uint64_t count, std::int64_t ns)
{
    if (!enabled)
        return;
    std::lock_guard<std::mutex> lock(m);
    aggregates.push_back(Aggregate{name, parent, count, ns});
}

void
Tracer::writeJson(smt::JsonWriter &jw) const
{
    std::lock_guard<std::mutex> lock(m);
    jw.key("spans");
    jw.beginArray();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        jw.beginObject();
        jw.field("id", static_cast<std::int64_t>(i));
        jw.field("name", s.name);
        jw.field("parent", static_cast<std::int64_t>(s.parent));
        jw.field("start_ns", s.start);
        jw.field("end_ns", s.end);
        jw.endObject();
    }
    jw.endArray();
    jw.key("aggregates");
    jw.beginArray();
    for (const Aggregate &a : aggregates) {
        jw.beginObject();
        jw.field("name", a.name);
        jw.field("parent", static_cast<std::int64_t>(a.parent));
        jw.field("count", a.count);
        jw.field("total_ns", a.ns);
        jw.endObject();
    }
    jw.endArray();
}

} // namespace perfbench
