#include "sim/simulator.hh"

#include "sim/checkpoint.hh"
#include "util/logging.hh"

namespace smt
{

Simulator::Simulator(const SimConfig &config)
    : cfg(config), images(buildWorkload(config.workload, config.seed))
{
    if (cfg.core.numThreads != images.numThreads())
        fatal("config numThreads %u != workload threads %u",
              cfg.core.numThreads, images.numThreads());

    core_ = std::make_unique<SmtCore>(cfg.core);
    const auto &thread_traces = cfg.workload.traces;
    for (unsigned t = 0; t < images.numThreads(); ++t) {
        const BenchmarkImage &img = *images.images[t];
        // The seed this thread's image was actually built with: a
        // replayed thread's image comes from its source trace's
        // header, not from cfg.seed (re-recording a replay must not
        // stamp a header that names the wrong image).
        std::uint64_t image_seed = cfg.seed;
        if (t < thread_traces.size() && !thread_traces[t].empty()) {
            auto replay = std::make_unique<FileTraceStream>(
                img, thread_traces[t]);
            image_seed = replay->header().seed;
            traces.push_back(std::move(replay));
        } else {
            traces.push_back(
                std::make_unique<SyntheticTraceStream>(img));
        }

        if (!cfg.recordPath.empty()) {
            TraceFileHeader hdr;
            hdr.benchmark = img.profile.name;
            hdr.seed = image_seed;
            hdr.codeBase = img.program.base();
            hdr.dataBase = img.dataBase;
            recorders.push_back(std::make_unique<TraceWriter>(
                recordPathFor(cfg.recordPath,
                              static_cast<ThreadID>(t),
                              images.numThreads()),
                hdr));
            traces.back()->setRecorder(recorders.back().get());
        }

        core_->setThread(static_cast<ThreadID>(t), traces.back().get(),
                         images.images[t].get());
    }
}

std::string
Simulator::recordPathFor(const std::string &base, ThreadID tid,
                         unsigned num_threads)
{
    if (num_threads <= 1)
        return base;
    std::string suffix = csprintf(".t%d", (int)tid);
    std::size_t slash = base.find_last_of('/');
    std::size_t dot = base.find_last_of('.');
    if (dot == std::string::npos ||
        (slash != std::string::npos && dot < slash))
        return base + suffix;
    return base.substr(0, dot) + suffix + base.substr(dot);
}

void
Simulator::run()
{
    runWarmup();
    runMeasure();
}

void
Simulator::runWarmup()
{
    core_->run(cfg.warmupCycles);
    core_->resetStats();
}

void
Simulator::runMeasure()
{
    core_->run(cfg.measureCycles);
    measuredJson = core_->registry().jsonString();

    // Capture margin: extra records beyond what this run consumed, so
    // a replay under a slightly different configuration (or a longer
    // window) does not exhaust the file. Runs after measurement with
    // the measured counters snapshotted (SimStats restored, registry
    // JSON frozen above), so the recorded run reports the same stats
    // as an unpadded run.
    if (!cfg.recordPath.empty() && cfg.recordPadCycles > 0) {
        SimStats measured = core_->stats();
        core_->run(cfg.recordPadCycles);
        core_->stats() = measured;
    }
}

std::string
Simulator::saveCheckpointToString() const
{
    CheckpointWriter w("<memory>", warmupConfigKey(cfg));
    core_->saveState(w);
    for (unsigned t = 0; t < images.numThreads(); ++t) {
        w.begin(csprintf("trace.t%u", t));
        traces[t]->save(w);
        w.end();
    }
    return w.finish();
}

void
Simulator::restoreCheckpointFromString(const std::string &data,
                                       const std::string &context)
{
    if (!cfg.recordPath.empty())
        throw CheckpointError(
            "refusing to restore a checkpoint into a recording run: "
            "the captured trace would silently miss every record "
            "consumed before the snapshot — record with a full "
            "(non-restored) run instead");
    if (core_->now() != 0)
        throw CheckpointError(
            "checkpoint restore requires a freshly-constructed "
            "simulator (this one has already run)");
    CheckpointReader r(data, context);
    std::string expected = warmupConfigKey(cfg);
    if (r.configKey() != expected)
        r.fail(csprintf(
            "was saved under a different configuration.\n  saved:  "
            "%s\n  target: %s\nRe-run the warmup for this "
            "configuration",
            r.configKey().c_str(), expected.c_str()));
    core_->restoreState(r);
    for (unsigned t = 0; t < images.numThreads(); ++t) {
        r.begin(csprintf("trace.t%u", t));
        traces[t]->restore(r);
        r.end();
    }
    r.finish();
}

void
Simulator::runExtra(Cycle cycles)
{
    core_->run(cycles);
}

} // namespace smt
