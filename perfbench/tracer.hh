/**
 * @file
 * In-memory span recorder for the benchmark's traced run. A span
 * brackets one call from the benchmark into a simulator layer (name,
 * start, end, parent span); calls made per trace record or per memory
 * access are folded into an aggregate (count plus total time) under a
 * parent span instead of one span each. Nothing is written until the
 * run ends. Self time (span duration minus what its children cover) is
 * derived downstream by run.py from the written spans.
 */

#ifndef PERFBENCH_TRACER_HH
#define PERFBENCH_TRACER_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace smt
{
class JsonWriter;
}

namespace perfbench
{

/** Nanoseconds on the steady clock since the first call in the run. */
std::int64_t nowNs();

/** Host CPU seconds of the calling thread / of the whole process. */
double threadCpuSeconds();
double processCpuSeconds();

class Tracer
{
  public:
    /** Span id meaning "no parent" (a root span). */
    static constexpr int root = -1;

    /** Disabled tracers record nothing; begin() returns root. */
    explicit Tracer(bool enabled) : enabled(enabled) {}

    bool on() const { return enabled; }

    /** Open a span; thread-safe. @return its id. */
    int begin(const std::string &name, int parent = root);

    /** Close a span opened by begin(); thread-safe. */
    void end(int id);

    /** Fold `count` calls taking `ns` in total under `parent`. */
    void aggregate(const std::string &name, int parent,
                   std::uint64_t count, std::int64_t ns);

    /** Emit {"spans": [...], "aggregates": [...]} members. */
    void writeJson(smt::JsonWriter &jw) const;

  private:
    struct Span
    {
        std::string name;
        int parent;
        std::int64_t start;
        std::int64_t end;
    };

    struct Aggregate
    {
        std::string name;
        int parent;
        std::uint64_t count;
        std::int64_t ns;
    };

    bool enabled;
    mutable std::mutex m;
    std::vector<Span> spans;
    std::vector<Aggregate> aggregates;
};

/** RAII span: begin on construction, end on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &tracer, const std::string &name,
               int parent = Tracer::root)
        : tracer(tracer), spanId(tracer.begin(name, parent))
    {
    }
    ~ScopedSpan() { tracer.end(spanId); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int id() const { return spanId; }

  private:
    Tracer &tracer;
    int spanId;
};

} // namespace perfbench

#endif // PERFBENCH_TRACER_HH
