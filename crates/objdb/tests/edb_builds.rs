//! `objdb.edb_builds` pins the maintained-EDB contract: only database
//! construction (and recovery) builds the EDB. Kept as the only test of
//! its binary so no concurrent test moves the process-global counter.

use sqo_objdb::ObjectDb;
use sqo_odl::fixtures::university_schema;

/// The EDB is built once per database: writes and reads never rebuild it.
#[test]
fn only_construction_builds_the_edb() {
    sqo_obs::set_enabled(true);
    let builds = || {
        sqo_obs::flush_local();
        sqo_obs::snapshot().counter(sqo_obs::Counter::EdbBuilds)
    };
    let b0 = builds();
    let mut db = ObjectDb::new(university_schema());
    assert_eq!(builds(), b0 + 1);
    let sec = db.create("Section", vec![]).unwrap();
    for i in 0..10 {
        let s = db
            .create("Student", vec![("name", format!("s{i}").into())])
            .unwrap();
        db.link(s, "takes", sec).unwrap();
        assert_eq!(db.edb().relation(&"takes".into()).unwrap().len(), i + 1);
    }
    db.define_asr("takes_course", "Student", &["takes", "is_section_of"])
        .unwrap();
    assert_eq!(builds(), b0 + 1);
}
