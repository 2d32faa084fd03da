//! Wire protocol: JSON request/response payloads carried in
//! length-prefixed frames ([`linarb_trace::frame`]).
//!
//! Requests are single JSON objects dispatched on `"op"`:
//!
//! ```json
//! {"op":"ping"}
//! {"op":"stats"}
//! {"op":"shutdown"}
//! {"op":"solve","id":1,"name":"fig1","format":"smt2","program":"(set-logic HORN)..."}
//! {"op":"batch","jobs":[{...},{...}]}
//! ```
//!
//! Every request gets exactly one response frame. A `solve` or
//! `batch` request is answered by one `batch` frame with a result per
//! job, in submission order. Each result carries the verdict, which
//! cache tier answered, whether the verdict was independently
//! re-verified, and the job's wall time:
//!
//! ```json
//! {"op":"batch","parse_us":41,"results":[
//!   {"id":1,"name":"fig1","verdict":"sat","cache":"exact","verified":true,"wall_us":812}]}
//! ```
//!
//! `parse_us` is the daemon's time to parse that request frame (JSON
//! and job fields), in microseconds. It does not count reading the
//! frame off the socket, and no job's `wall_us` includes it. So a slow
//! reply's parse cost is read from the reply itself, not inferred as
//! round trip minus `wall_us`.

use linarb_trace::json::{self, Json};
use linarb_trace::json_string;

/// One solve job as submitted on the wire.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Client-chosen id echoed back in the response.
    pub id: u64,
    /// Display name (defaults to `job<id>`).
    pub name: String,
    /// `"smt2"` (SMT-LIB2 Horn) or `"c"` (the mini-C frontend).
    pub format: String,
    /// The program text.
    pub program: String,
}

/// A parsed request frame.
#[derive(Clone, Debug)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Cache/scheduler counters.
    Stats,
    /// Stop accepting connections and exit the accept loop.
    Shutdown,
    /// One or more solve jobs (a bare `solve` is a batch of one).
    Batch(Vec<JobSpec>),
}

fn parse_job(v: &Json, default_id: u64) -> Result<JobSpec, String> {
    let id = v.get("id").and_then(Json::as_f64).map(|n| n as u64).unwrap_or(default_id);
    let program = v
        .get("program")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("job {id}: missing \"program\""))?
        .to_string();
    let format = v.get("format").and_then(Json::as_str).unwrap_or("smt2").to_string();
    if format != "smt2" && format != "c" {
        return Err(format!("job {id}: unknown format {format:?} (want \"smt2\" or \"c\")"));
    }
    let name = v
        .get("name")
        .and_then(Json::as_str)
        .map(str::to_string)
        .unwrap_or_else(|| format!("job{id}"));
    Ok(JobSpec { id, name, format, program })
}

/// Parses one request frame.
///
/// # Errors
///
/// A human-readable message when the frame is not valid JSON, has no
/// known `"op"`, or a job is malformed. The server reports it in an
/// `{"op":"error"}` response rather than dropping the connection.
pub fn parse_request(text: &str) -> Result<Request, String> {
    let v = json::parse(text).map_err(|e| e.to_string())?;
    let op = v.get("op").and_then(Json::as_str).ok_or("missing \"op\"")?;
    match op {
        "ping" => Ok(Request::Ping),
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        "solve" => Ok(Request::Batch(vec![parse_job(&v, 0)?])),
        "batch" => {
            let Some(Json::Arr(items)) = v.get("jobs") else {
                return Err("batch: missing \"jobs\" array".to_string());
            };
            let mut jobs = Vec::with_capacity(items.len());
            for (i, item) in items.iter().enumerate() {
                jobs.push(parse_job(item, i as u64)?);
            }
            Ok(Request::Batch(jobs))
        }
        other => Err(format!("unknown op {other:?}")),
    }
}

/// Renders a solve request frame (client side).
pub fn render_solve(job: &JobSpec) -> String {
    format!(
        "{{\"op\":\"solve\",\"id\":{},\"name\":{},\"format\":{},\"program\":{}}}",
        job.id,
        json_string(&job.name),
        json_string(&job.format),
        json_string(&job.program)
    )
}

/// Renders a batch request frame (client side).
pub fn render_batch(jobs: &[JobSpec]) -> String {
    let body: Vec<String> = jobs
        .iter()
        .map(|j| {
            format!(
                "{{\"id\":{},\"name\":{},\"format\":{},\"program\":{}}}",
                j.id,
                json_string(&j.name),
                json_string(&j.format),
                json_string(&j.program)
            )
        })
        .collect();
    format!("{{\"op\":\"batch\",\"jobs\":[{}]}}", body.join(","))
}

/// Renders an error response frame.
pub fn render_error(msg: &str) -> String {
    format!("{{\"op\":\"error\",\"error\":{}}}", json_string(msg))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_round_trip() {
        let job = JobSpec {
            id: 7,
            name: "fig\"1".to_string(),
            format: "smt2".to_string(),
            program: "(set-logic HORN)\n".to_string(),
        };
        let Request::Batch(jobs) = parse_request(&render_solve(&job)).unwrap() else {
            panic!("expected batch");
        };
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].id, 7);
        assert_eq!(jobs[0].name, "fig\"1");
        assert_eq!(jobs[0].program, "(set-logic HORN)\n");
    }

    #[test]
    fn batch_round_trip_and_defaults() {
        let jobs = vec![
            JobSpec { id: 0, name: "a".into(), format: "smt2".into(), program: "x".into() },
            JobSpec { id: 1, name: "b".into(), format: "c".into(), program: "y".into() },
        ];
        let Request::Batch(parsed) = parse_request(&render_batch(&jobs)).unwrap() else {
            panic!("expected batch");
        };
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[1].format, "c");
        // Missing name/format fall back to defaults.
        let Request::Batch(j) =
            parse_request("{\"op\":\"solve\",\"program\":\"p\"}").unwrap()
        else {
            panic!("expected batch");
        };
        assert_eq!(j[0].name, "job0");
        assert_eq!(j[0].format, "smt2");
    }

    #[test]
    fn malformed_requests_are_errors() {
        assert!(parse_request("not json").is_err());
        assert!(parse_request("{\"op\":\"warp\"}").is_err());
        assert!(parse_request("{\"op\":\"solve\"}").is_err());
        assert!(parse_request("{\"op\":\"batch\"}").is_err());
        assert!(
            parse_request("{\"op\":\"solve\",\"program\":\"p\",\"format\":\"f90\"}").is_err()
        );
    }
}
