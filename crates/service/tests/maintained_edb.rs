//! A store-backed server answers reads after writes from its maintained
//! EDB: across many create → link → executed-read cycles the
//! `objdb.edb_builds` counter in `metrics` never moves after warm-up, and
//! every served answer count equals the unoptimised translation executed
//! on an in-process mirror that replays the same writes.
//!
//! The server is set up the way `sqo serve --university --store-path DIR`
//! sets it up: a university session whose default data is an
//! `ObjectDb::open` of the directory. Kept as the only test of its binary
//! because it reads a process-global counter.

use sqo_core::SemanticOptimizer;
use sqo_objdb::{ObjectDb, Oid, Value};
use sqo_obs as obs;
use sqo_odl::fixtures::university_schema;
use sqo_service::json::{self, Json};
use sqo_service::{Server, ServerConfig, SessionRegistry, SessionSpec};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

const IC4: &str = "ic IC4: Age >= 30 <- faculty(X, N, Age, S, R, Ad).";
/// The read after each write: one answer per `takes` pair of a young
/// student, so a read that missed the latest link would be short by one.
const READ: &str = "select x.name, y.number from x in Student y in x.takes where x.age < 30";

struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn call(&mut self, line: &str) -> Json {
        // One write per request line (no Nagle stall behind a split write).
        self.stream
            .write_all(format!("{line}\n").as_bytes())
            .unwrap();
        let mut resp = String::new();
        self.reader.read_line(&mut resp).unwrap();
        let resp = json::parse(&resp).unwrap();
        assert_eq!(
            resp.get("ok"),
            Some(&Json::Bool(true)),
            "{line} -> {resp:?}"
        );
        resp
    }

    fn create(&mut self, mirror: &mut ObjectDb, class: &str, name: &str, age: i64) -> Oid {
        let resp = self.call(&format!(
            r#"{{"op":"create","class":"{class}","attrs":{{"name":"{name}","age":{age}}}}}"#
        ));
        let oid = Oid(resp.get("oid").and_then(Json::as_u64).unwrap());
        let mirrored = mirror
            .create(class, vec![("name", name.into()), ("age", Value::Int(age))])
            .unwrap();
        assert_eq!(mirrored, oid, "mirror out of step");
        oid
    }

    fn link(&mut self, mirror: &mut ObjectDb, from: Oid, rel: &str, to: Oid) {
        self.call(&format!(
            r#"{{"op":"link","from":{},"rel":"{rel}","to":{}}}"#,
            from.0, to.0
        ));
        mirror.link(from, rel, to).unwrap();
    }

    fn edb_builds(&mut self) -> u64 {
        let metrics = self.call(r#"{"op":"metrics"}"#);
        metrics
            .get("stats")
            .and_then(|s| s.get("counters"))
            .and_then(|c| c.get("objdb.edb_builds"))
            .and_then(Json::as_u64)
            .expect("metrics carry objdb.edb_builds")
    }
}

#[test]
fn writes_then_reads_never_rebuild_the_edb() {
    obs::set_enabled(true);
    let dir = std::env::temp_dir().join(format!("sqo_serve_maintained_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let registry = Arc::new(SessionRegistry::new());
    registry
        .prepare("default", SessionSpec::University, Some(IC4))
        .unwrap();
    let mut db = ObjectDb::open(university_schema(), &dir, 4).unwrap();
    sqo_objdb::register_university_methods(&mut db).unwrap();
    registry.get("default").unwrap().attach_db(db);
    let server = Server::bind(
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_capacity: 16,
            ..ServerConfig::default()
        },
        registry,
    )
    .unwrap();
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run().unwrap());

    // The mirror replays every write in process; the read's unoptimised
    // translation is its oracle.
    let mut mirror = ObjectDb::new(university_schema());
    let read = SemanticOptimizer::university()
        .translate(&sqo_oql::parse_oql(READ).unwrap())
        .unwrap()
        .query;
    obs::flush_local();

    let stream = TcpStream::connect(addr).unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    let mut client = Client { stream, reader };
    let read_line = format!(
        r#"{{"op":"query","oql":{},"execute":true}}"#,
        obs::json_string(READ)
    );
    let cycle = |client: &mut Client, mirror: &mut ObjectDb, i: usize, sections: &[Oid]| {
        let s = client.create(mirror, "Student", &format!("s{i}"), 18 + (i % 20) as i64);
        client.link(mirror, s, "takes", sections[i % sections.len()]);
        let served = client.call(&read_line);
        let expected = sqo_objdb::execute(mirror, &read).unwrap().0.len() as u64;
        assert_eq!(
            served.get("answers").and_then(Json::as_u64),
            Some(expected),
            "cycle {i}: served answers vs the mirror's unoptimised read"
        );
    };

    // Warm-up: a few sections, then one full cycle (plans cached).
    let sections: Vec<Oid> = (0..3)
        .map(|k| {
            let resp = client.call(&format!(
                r#"{{"op":"create","class":"Section","attrs":{{"number":"sec{k}"}}}}"#
            ));
            let oid = Oid(resp.get("oid").and_then(Json::as_u64).unwrap());
            let mirrored = mirror
                .create("Section", vec![("number", format!("sec{k}").into())])
                .unwrap();
            assert_eq!(mirrored, oid);
            oid
        })
        .collect();
    cycle(&mut client, &mut mirror, 0, &sections);
    let builds = client.edb_builds();

    for i in 1..=50 {
        cycle(&mut client, &mut mirror, i, &sections);
    }
    assert_eq!(
        client.edb_builds(),
        builds,
        "a write followed by a read must not rebuild the EDB"
    );

    client.call(r#"{"op":"shutdown"}"#);
    handle.join().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}
