//! Hierarchical self-profiler: aggregates the RAII spans of
//! [`crate::span`] into a per-thread call tree with inclusive time,
//! exclusive time, and call counts.
//!
//! The profiler reuses the span instrumentation that already covers
//! every solver layer — no extra annotation is needed. While a
//! [`ProfileScope`] is installed on a thread, each span push/pop on
//! that thread walks a cursor through an arena-backed tree keyed by
//! span name; identical call paths aggregate into one node. Children
//! are stored in a [`BTreeMap`], so sibling order (and therefore every
//! serialization) is deterministic.
//!
//! # Overhead contract
//!
//! Same as events and metrics: with no scope installed anywhere, the
//! per-span cost is one relaxed atomic load and a branch
//! ([`profiling_enabled`]). Time-stamping reuses the span's existing
//! `Instant` pair, so an enabled profile adds two map operations per
//! span and nothing else.
//!
//! Profiles are strictly per-thread; [`ProfileTree::merge`] sums the
//! trees of separate runs.
//!
//! # Exports
//!
//! [`ProfileTree::to_json`] is a nested JSON document (children as
//! name-sorted arrays); [`ProfileTree::to_collapsed`] emits
//! semicolon-joined collapsed-stack lines
//! (`linarb;cegar.solve;core.oracle 1234`, values in exclusive
//! microseconds) directly consumable by flamegraph tooling.

use crate::event::json_string;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Live [`ProfileScope`]s across all threads. THE fast-path gate.
static SCOPES: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static LOCAL: RefCell<Option<Rc<RefCell<ProfInner>>>> = const { RefCell::new(None) };
}

/// `true` when some thread is profiling. The per-span disabled cost:
/// one relaxed atomic load and a compare.
#[inline]
pub fn profiling_enabled() -> bool {
    SCOPES.load(Ordering::Relaxed) > 0
}

/// Arena-backed aggregation tree. Index 0 is the synthetic root.
struct ProfInner {
    nodes: Vec<NodeRec>,
    /// Indices of the open ancestor chain; `stack[0] == 0` always.
    stack: Vec<usize>,
}

struct NodeRec {
    name: String,
    children: BTreeMap<String, usize>,
    calls: u64,
    incl_us: u64,
}

impl ProfInner {
    fn new() -> ProfInner {
        ProfInner {
            nodes: vec![NodeRec {
                name: String::new(),
                children: BTreeMap::new(),
                calls: 0,
                incl_us: 0,
            }],
            stack: vec![0],
        }
    }

    fn child_of(&mut self, parent: usize, name: &str) -> usize {
        if let Some(&i) = self.nodes[parent].children.get(name) {
            return i;
        }
        let i = self.nodes.len();
        self.nodes.push(NodeRec {
            name: name.to_string(),
            children: BTreeMap::new(),
            calls: 0,
            incl_us: 0,
        });
        self.nodes[parent].children.insert(name.to_string(), i);
        i
    }

    fn push(&mut self, name: &str) {
        let parent = *self.stack.last().expect("root never pops");
        let i = self.child_of(parent, name);
        self.nodes[i].calls += 1;
        self.stack.push(i);
    }

    fn pop(&mut self, dur: Duration) {
        // Defensive: a span that outlives the scope it started under
        // must not underflow the fresh scope's stack.
        if self.stack.len() > 1 {
            let i = self.stack.pop().expect("non-empty");
            self.nodes[i].incl_us += dur.as_micros() as u64;
        }
    }

    fn build(&self, i: usize) -> ProfileNode {
        let rec = &self.nodes[i];
        ProfileNode {
            name: rec.name.clone(),
            calls: rec.calls,
            incl_us: rec.incl_us,
            children: rec
                .children
                .iter()
                .map(|(name, &c)| (name.clone(), self.build(c)))
                .collect(),
        }
    }
}

/// Records one span push on the current thread's profiler. Returns
/// `true` when a profiler consumed it (the span must then [`pop`] on
/// drop). Called by [`crate::span`]; not part of the public surface
/// instrumented code uses directly.
#[inline]
pub(crate) fn push(name: &'static str) -> bool {
    if !profiling_enabled() {
        return false;
    }
    LOCAL.with(|l| match l.borrow().as_ref() {
        Some(rc) => {
            rc.borrow_mut().push(name);
            true
        }
        None => false,
    })
}

/// Records the matching span pop with the span's duration.
#[inline]
pub(crate) fn pop(dur: Duration) {
    LOCAL.with(|l| {
        if let Some(rc) = l.borrow().as_ref() {
            rc.borrow_mut().pop(dur);
        }
    });
}

/// A thread-local profiling scope: while alive, every span on this
/// thread feeds the scope's call tree. Scopes nest (an inner scope
/// shadows the outer until dropped), mirroring [`crate::MetricsScope`].
pub struct ProfileScope {
    inner: Rc<RefCell<ProfInner>>,
    prev: Option<Rc<RefCell<ProfInner>>>,
}

impl ProfileScope {
    /// Installs a fresh scope on the current thread.
    #[allow(clippy::new_without_default)]
    pub fn new() -> ProfileScope {
        let inner = Rc::new(RefCell::new(ProfInner::new()));
        let prev = LOCAL.with(|l| l.borrow_mut().replace(Rc::clone(&inner)));
        SCOPES.fetch_add(1, Ordering::Relaxed);
        ProfileScope { inner, prev }
    }

    /// Drains the scope's aggregation into a [`ProfileTree`] (the
    /// scope restarts empty, open spans keep their stack positions).
    pub fn take_tree(&self) -> ProfileTree {
        let mut inner = self.inner.borrow_mut();
        let tree = ProfileTree { root: inner.build(0) };
        let depth = inner.stack.len();
        *inner = ProfInner::new();
        // Re-open placeholder frames for spans still on the stack so
        // their pops stay balanced (they contribute no named nodes —
        // the root absorbs them).
        inner.stack = vec![0; depth];
        tree
    }
}

impl Drop for ProfileScope {
    fn drop(&mut self) {
        let prev = self.prev.take();
        LOCAL.with(|l| *l.borrow_mut() = prev);
        SCOPES.fetch_sub(1, Ordering::Relaxed);
    }
}

/// One aggregated call-tree node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProfileNode {
    /// Span name (`cegar.solve`, `core.oracle`, …). Empty for the
    /// synthetic root.
    pub name: String,
    /// Completed spans aggregated into this node.
    pub calls: u64,
    /// Inclusive time: total microseconds spent inside this call path,
    /// children included.
    pub incl_us: u64,
    /// Children keyed by name — deterministic sibling order.
    pub children: BTreeMap<String, ProfileNode>,
}

impl ProfileNode {
    /// Exclusive (self) time: inclusive minus the children's inclusive
    /// time, clamped at zero (a child still open when the tree was
    /// taken can momentarily exceed its parent's recorded time).
    pub fn excl_us(&self) -> u64 {
        let children: u64 = self.children.values().map(|c| c.incl_us).sum();
        self.incl_us.saturating_sub(children)
    }

    fn merge(&mut self, other: &ProfileNode) {
        self.calls += other.calls;
        self.incl_us += other.incl_us;
        for (name, child) in &other.children {
            match self.children.get_mut(name) {
                Some(mine) => mine.merge(child),
                None => {
                    self.children.insert(name.clone(), child.clone());
                }
            }
        }
    }

    fn to_json_into(&self, out: &mut String) {
        out.push_str("{\"name\":");
        out.push_str(&json_string(&self.name));
        out.push_str(&format!(
            ",\"calls\":{},\"incl_us\":{},\"excl_us\":{},\"children\":[",
            self.calls,
            self.incl_us,
            self.excl_us()
        ));
        for (i, child) in self.children.values().enumerate() {
            if i > 0 {
                out.push(',');
            }
            child.to_json_into(out);
        }
        out.push_str("]}");
    }

    fn collapse_into(&self, prefix: &str, out: &mut String) {
        let path = if prefix.is_empty() {
            self.name.clone()
        } else {
            format!("{prefix};{}", self.name)
        };
        let excl = self.excl_us();
        // Zero-self interior nodes are implied by their children's
        // paths; leaves always get a line so sub-microsecond call
        // paths still appear in the flamegraph.
        if excl > 0 || self.children.is_empty() {
            out.push_str(&format!("{path} {excl}\n"));
        }
        for child in self.children.values() {
            child.collapse_into(&path, out);
        }
    }
}

/// A complete aggregated profile (one thread's scope, or several
/// merged).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProfileTree {
    /// The synthetic root; its children are the outermost spans.
    pub root: ProfileNode,
}

impl ProfileTree {
    /// An empty tree.
    pub fn empty() -> ProfileTree {
        ProfileTree {
            root: ProfileNode {
                name: String::new(),
                calls: 0,
                incl_us: 0,
                children: BTreeMap::new(),
            },
        }
    }

    /// Total inclusive time over the outermost spans — the profile's
    /// measured wall-clock, for cross-checking against an external
    /// timer.
    pub fn root_incl_us(&self) -> u64 {
        self.root.children.values().map(|c| c.incl_us).sum()
    }

    /// Merges another tree into this one (calls and times add;
    /// structure unions).
    pub fn merge(&mut self, other: &ProfileTree) {
        // The roots are both synthetic: merge their children.
        for (name, child) in &other.root.children {
            match self.root.children.get_mut(name) {
                Some(mine) => mine.merge(child),
                None => {
                    self.root.children.insert(name.clone(), child.clone());
                }
            }
        }
    }

    /// The tree as one JSON document:
    /// `{"profile":[{"name":...,"calls":...,"incl_us":...,"excl_us":...,"children":[...]}]}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"profile\":[");
        for (i, child) in self.root.children.values().enumerate() {
            if i > 0 {
                out.push(',');
            }
            child.to_json_into(&mut out);
        }
        out.push_str("]}");
        out
    }

    /// Collapsed-stack rendering (`linarb;<path> <exclusive_us>`, one
    /// line per call path), the input format of flamegraph tooling.
    pub fn to_collapsed(&self) -> String {
        let mut out = String::new();
        for child in self.root.children.values() {
            child.collapse_into("linarb", &mut out);
        }
        out
    }

    /// A time-free rendering — call paths and counts only — that must
    /// be identical across runs of a deterministic solver (times are
    /// the only sanctioned difference).
    pub fn deterministic_key(&self) -> String {
        fn walk(node: &ProfileNode, prefix: &str, out: &mut String) {
            let path = if prefix.is_empty() {
                node.name.clone()
            } else {
                format!("{prefix};{}", node.name)
            };
            out.push_str(&format!("{path} calls={}\n", node.calls));
            for child in node.children.values() {
                walk(child, &path, out);
            }
        }
        let mut out = String::new();
        for child in self.root.children.values() {
            walk(child, "", &mut out);
        }
        out
    }

    /// Checks the structural invariant every profile must satisfy:
    /// at each node, the children's inclusive times sum to at most the
    /// node's inclusive time (within `slack_us` per node for open-span
    /// truncation). Returns the first violating path, if any.
    pub fn check_invariant(&self, slack_us: u64) -> Option<String> {
        fn walk(node: &ProfileNode, path: &str, slack: u64) -> Option<String> {
            let children: u64 = node.children.values().map(|c| c.incl_us).sum();
            if children > node.incl_us + slack {
                return Some(format!(
                    "{path}: children sum {children}us > inclusive {}us",
                    node.incl_us
                ));
            }
            for child in node.children.values() {
                let p = format!("{path};{}", child.name);
                if let Some(v) = walk(child, &p, slack) {
                    return Some(v);
                }
            }
            None
        }
        for child in self.root.children.values() {
            if let Some(v) = walk(child, &child.name, slack_us) {
                return Some(v);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Level;

    #[test]
    fn spans_aggregate_into_tree() {
        let scope = ProfileScope::new();
        for _ in 0..3 {
            let _outer = crate::span(Level::Trace, "t", "outer");
            let _inner = crate::span(Level::Trace, "t", "inner");
        }
        {
            let _other = crate::span(Level::Trace, "t", "other");
        }
        let tree = scope.take_tree();
        let outer = &tree.root.children["outer"];
        assert_eq!(outer.calls, 3);
        assert_eq!(outer.children["inner"].calls, 3);
        assert_eq!(tree.root.children["other"].calls, 1);
        assert!(outer.incl_us >= outer.children["inner"].incl_us);
        assert!(tree.check_invariant(0).is_none(), "{tree:?}");
        // Exclusive never exceeds inclusive, by construction.
        assert!(outer.excl_us() <= outer.incl_us);
    }

    #[test]
    fn disabled_thread_records_nothing() {
        // No scope on this thread: spans don't touch the profiler.
        assert!(!push("nope") || profiling_enabled());
        {
            let _sp = crate::span(Level::Trace, "t", "unprofiled");
        }
        let scope = ProfileScope::new();
        let tree = scope.take_tree();
        assert!(tree.root.children.is_empty());
    }

    #[test]
    fn scopes_nest_and_restore() {
        let outer = ProfileScope::new();
        {
            let _sp = crate::span(Level::Trace, "t", "a");
        }
        {
            let inner = ProfileScope::new();
            {
                let _sp = crate::span(Level::Trace, "t", "b");
            }
            let t = inner.take_tree();
            assert!(t.root.children.contains_key("b"));
            assert!(!t.root.children.contains_key("a"));
        }
        {
            let _sp = crate::span(Level::Trace, "t", "c");
        }
        let t = outer.take_tree();
        assert!(t.root.children.contains_key("a"));
        assert!(t.root.children.contains_key("c"));
        assert!(!t.root.children.contains_key("b"));
    }

    #[test]
    fn merge_adds_counts_and_unions_structure() {
        let mk = |names: &[&str]| {
            let scope = ProfileScope::new();
            for n in names {
                // Leak the names via Box to get 'static strs in tests.
                let name: &'static str = Box::leak(n.to_string().into_boxed_str());
                let _sp = crate::span(Level::Trace, "t", name);
            }
            scope.take_tree()
        };
        let mut a = mk(&["x", "y"]);
        let b = mk(&["y", "z"]);
        a.merge(&b);
        assert_eq!(a.root.children["x"].calls, 1);
        assert_eq!(a.root.children["y"].calls, 2);
        assert_eq!(a.root.children["z"].calls, 1);
    }

    #[test]
    fn exports_are_deterministic_and_parseable() {
        let scope = ProfileScope::new();
        {
            let _a = crate::span(Level::Trace, "t", "beta");
        }
        {
            let _b = crate::span(Level::Trace, "t", "alpha");
            let _c = crate::span(Level::Trace, "t", "gamma");
        }
        let tree = scope.take_tree();
        let json = tree.to_json();
        assert!(crate::json::parse(&json).is_ok(), "{json}");
        // BTreeMap ordering: alpha before beta regardless of emission
        // order.
        let ja = json.find("alpha").unwrap();
        let jb = json.find("beta").unwrap();
        assert!(ja < jb);
        let collapsed = tree.to_collapsed();
        assert!(collapsed.contains("linarb;alpha;gamma "));
        assert!(collapsed.contains("linarb;beta "));
        for line in collapsed.lines() {
            let (path, val) = line.rsplit_once(' ').expect("path value");
            assert!(!path.is_empty());
            val.parse::<u64>().expect("numeric value");
        }
        let key = tree.deterministic_key();
        assert!(key.contains("alpha;gamma calls=1"));
    }

    #[test]
    fn take_tree_keeps_open_spans_balanced() {
        let scope = ProfileScope::new();
        let _open = crate::span(Level::Trace, "t", "still_open");
        let t1 = scope.take_tree();
        assert_eq!(t1.root.children["still_open"].calls, 1);
        assert_eq!(t1.root.children["still_open"].incl_us, 0, "not yet closed");
        {
            let _sp = crate::span(Level::Trace, "t", "after");
        }
        let t2 = scope.take_tree();
        // The still-open span's eventual pop lands on the placeholder
        // stack, not on a named node; "after" nests under it.
        assert!(t2.deterministic_key().contains("after calls=1"));
    }
}
