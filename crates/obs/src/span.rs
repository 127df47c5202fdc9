//! RAII scope timers with per-thread nesting.

use std::cell::RefCell;
use std::time::{Duration, Instant};

use crate::level::Level;
use crate::metrics;

thread_local! {
    static STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// The `>`-joined names of the spans currently open on this thread
/// (`"fit>epoch>batch"`), or `""` when none.
pub fn span_path() -> String {
    STACK.with(|s| s.borrow().join(">"))
}

/// Opens a span: pushes `name` onto the thread's span stack and starts the
/// clock. Dropping the returned guard pops the stack, records the duration
/// into the histogram `span.<name>` (microseconds, when
/// [`metrics::enabled`]), and emits a close event at the guard's level
/// (default [`Level::Debug`]).
pub fn span(target: &'static str, name: &'static str) -> SpanGuard {
    STACK.with(|s| s.borrow_mut().push(name));
    SpanGuard {
        target,
        name,
        start: Instant::now(),
        close_level: Level::Debug,
    }
}

/// Guard returned by [`span`]; the span closes when this drops.
pub struct SpanGuard {
    target: &'static str,
    name: &'static str,
    start: Instant,
    close_level: Level,
}

impl SpanGuard {
    /// Time elapsed since the span opened.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Overrides the level of the close event (e.g. [`Level::Trace`] for
    /// per-batch spans that would flood debug output).
    pub fn with_close_level(mut self, level: Level) -> Self {
        self.close_level = level;
        self
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed();
        // Pop before emitting so the close event carries the *outer* path.
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            debug_assert_eq!(stack.last().copied(), Some(self.name), "span stack order");
            stack.pop();
        });
        if metrics::enabled() {
            metrics::histogram_owned(format!("span.{}", self.name))
                .record(elapsed.as_micros() as u64);
        }
        if crate::log_enabled(self.close_level) {
            crate::dispatch(
                self.close_level,
                self.target,
                format_args!("{} closed", self.name),
                &[("duration_s", elapsed.as_secs_f64())],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{add_sink, clear_sinks, test_guard, MemorySink};
    use std::sync::Arc;

    #[test]
    fn paths_nest_and_unwind() {
        // The spans below emit close events through the global dispatcher;
        // without the guard they land in another test's sink.
        let _g = test_guard();
        assert_eq!(span_path(), "");
        let _a = span("t", "fit");
        assert_eq!(span_path(), "fit");
        {
            let _b = span("t", "epoch");
            assert_eq!(span_path(), "fit>epoch");
            {
                let _c = span("t", "batch");
                assert_eq!(span_path(), "fit>epoch>batch");
            }
            assert_eq!(span_path(), "fit>epoch");
        }
        assert_eq!(span_path(), "fit");
        drop(_a);
        assert_eq!(span_path(), "");
    }

    #[test]
    fn close_event_carries_duration_and_outer_path() {
        let _g = test_guard();
        clear_sinks();
        let mem = MemorySink::new();
        add_sink(Arc::new(mem.clone()));
        {
            let _outer = span("spans", "outer");
            let inner = span("spans", "inner");
            std::thread::sleep(Duration::from_millis(2));
            assert!(inner.elapsed() >= Duration::from_millis(2));
        }
        let lines = mem.lines();
        clear_sinks();
        // inner closes first; its event is inside "outer"
        let inner = crate::json::parse(&lines[0]).unwrap();
        assert_eq!(inner.get("message").unwrap().as_str(), Some("inner closed"));
        assert_eq!(inner.get("span").unwrap().as_str(), Some("outer"));
        let dur = inner
            .get("fields")
            .unwrap()
            .get("duration_s")
            .unwrap()
            .as_f64()
            .unwrap();
        assert!(dur >= 0.002, "duration {dur}");
        // outer closes outside any span: no "span" key
        let outer = crate::json::parse(&lines[1]).unwrap();
        assert_eq!(outer.get("message").unwrap().as_str(), Some("outer closed"));
        assert!(outer.get("span").is_none());
    }

    #[test]
    fn span_histogram_records_when_metrics_enabled() {
        let _g = test_guard();
        metrics::set_enabled(true);
        {
            let _s = span("t", "histo_span_test");
        }
        metrics::set_enabled(false);
        let h = metrics::histogram("span.histo_span_test");
        assert!(h.count() >= 1);
    }
}
