import re
import struct
from pathlib import Path

import numpy as np
import pytest

from semloc.errors import (
    BadMagic,
    ConsistencyError,
    DimMismatch,
    InvalidDataset,
    ParseError,
    TruncatedFile,
    UnknownLabel,
)
from semloc.model_ingest import (
    POINT_BLOCK_LINES,
    ClassTable,
    _load_points_by_line,
    id_rows,
    load_cameras,
    load_class_table,
    load_conditions,
    load_dataset,
    load_descriptors,
    load_global_descriptor,
    load_ground_truth,
    load_images,
    load_keypoints,
    load_label_raster,
    load_points,
    load_query_cameras,
    load_sfm_model,
    validate_dataset,
)
from semloc.semantic_map import build_semantic_map
from semloc.synth import CorruptionSpec, corrupt, write_model, write_pgm, write_sidecar
from sfm_models import views_model

TABLE = ClassTable(names=("road", "sidewalk", "building"), dynamic_ids=frozenset())


def write_minimal_model(model_dir, point_line="1 0.0 0.0 0.0 128 128 128 0.0 1 0 2 0"):
    model_dir.mkdir(parents=True, exist_ok=True)
    (model_dir / "cameras.txt").write_text("1 PINHOLE 640 480 500.0 500.0 320.0 240.0\n")
    (model_dir / "images.txt").write_text(
        "1 1.0 0.0 0.0 0.0 0.0 0.0 10.0 1 img_a\n"
        "320.0 240.0 1\n"
        "2 1.0 0.0 0.0 0.0 0.0 0.0 12.0 1 img_b\n"
        "320.0 240.0 1\n"
    )
    (model_dir / "points3D.txt").write_text(point_line + "\n")


def voted_label(raster, keypoint):
    """The map label of a point seen at `keypoint` from two views that
    share `raster`; None when the map drops the point."""
    model, rasters = views_model(np.zeros(3), [(0, 0, 5), (1, 0, 5)], [raster, raster], [keypoint] * 2)
    smap = build_semantic_map(model, rasters, TABLE)
    return int(smap.labels[0]) if len(smap) else None


def images_txt(kps_a="320.0 240.0 1", kps_b="320.0 240.0 1", camera_a=1):
    return (
        f"1 1.0 0.0 0.0 0.0 0.0 0.0 10.0 {camera_a} img_a\n{kps_a}\n"
        f"2 1.0 0.0 0.0 0.0 0.0 0.0 12.0 1 img_b\n{kps_b}\n"
    )


POINT = "1 0.0 0.0 0.0 128 128 128 0.0 "
SINGLE_FAULTS = {
    "missing camera": (images_txt(camera_a=2), POINT + "1 0 2 0",
                       "image 1 references missing camera 2"),
    "keypoint outside the frame": (images_txt(kps_a="650.0 240.0 1"), POINT + "1 0 2 0",
                                   "image 1 has keypoints outside the frame"),
    "keypoint links to a missing point": (
        images_txt(kps_a="320.0 240.0 7 330.0 240.0 1"), POINT + "1 1 2 0",
        "image 1 keypoint 0 references missing point 7"),
    "track omits a linked keypoint": (
        images_txt(kps_b="320.0 240.0 1 330.0 240.0 1"), POINT + "1 0 2 0",
        "asymmetric track: image 2 keypoint 1 links to point 1, whose track omits it"),
    "track names a missing image": (images_txt(kps_b="320.0 240.0 -1"), POINT + "1 0 99 0",
                                    "point 1 track references missing image 99"),
    "track keypoint out of range": (
        images_txt(kps_b="320.0 240.0 -1"), POINT + "1 0 2 5",
        "point 1 track references keypoint 5 out of range for image 2"),
    "track claims an untracked keypoint": (
        images_txt(kps_b="320.0 240.0 -1"), POINT + "1 0 2 0",
        "asymmetric track: point 1 claims image 2 keypoint 0, which links to -1"),
    "track claims another point's keypoint": (
        images_txt(kps_b="320.0 240.0 2"),
        POINT + "1 0 2 0\n2 1.0 0.0 0.0 128 128 128 0.0 1 0 2 0",
        "asymmetric track: point 1 claims image 2 keypoint 0, which links to 2"),
    "track lists a keypoint twice": (images_txt(), POINT + "1 0 1 0 2 0",
                                     "point 1 track lists image 1 keypoint 0 twice"),
}

BIG = "99999999999999999999"  # beyond int64
IMAGE = "<image-id> qw qx qy qz tx ty tz <camera-id> <name>"
KEYPOINTS = "(<x> <y> <point3d-id>)..."
POINTS = "<point-id> <x> <y> <z> <r> <g> <b> <error> (<image-id> <point2d-idx>)..."
LONG = "Python int too large to convert to C long"
SINGLE_PARSE_FAULTS = {  # (images.txt, points3D.txt, file, line, message)
    "bad keypoint value": (images_txt(kps_a="320.0 abc 1"), POINT + "1 0 2 0", "images.txt", 2,
                           f"expected '{KEYPOINTS}': could not convert string to float: 'abc'"),
    "bad keypoint point id": (images_txt(kps_a="320.0 240.0 1.5"), POINT + "1 0 2 0", "images.txt", 2,
                              f"expected '{KEYPOINTS}': invalid literal for int() with base 10: '1.5'"),
    "non-finite keypoint": (images_txt(kps_b="320.0 nan 1"), POINT + "1 0 2 0", "images.txt", 4,
                            "non-finite keypoint"),
    "non-finite point position": (images_txt(), "1 0.0 -inf 0.0 128 128 128 0.0 1 0 2 0",
                                  "points3D.txt", 1, "non-finite point position"),
    "keypoint point id beyond int64": (
        images_txt(kps_a=f"320.0 240.0 {BIG}"), POINT + "1 0 2 0", "images.txt", 2,
        f"expected '{KEYPOINTS}': {LONG}"),
    "image id beyond int64": (
        images_txt().replace("1 1.0", f"{BIG} 1.0", 1), POINT + "1 0 2 0", "images.txt", 1,
        f"expected '{IMAGE}': id out of the int64 range"),
    "point id beyond int64": (images_txt(), f"{BIG} 0.0 0.0 0.0 128 128 128 0.0 1 0 2 0",
                              "points3D.txt", 1, f"expected '{POINTS}': id out of the int64 range"),
    "track image id beyond int64": (images_txt(), POINT + f"1 0 -{BIG} 0", "points3D.txt", 1,
                                    f"expected '{POINTS}': {LONG}"),
    "point id -1": (images_txt(kps_a="320.0 240.0 -1", kps_b="320.0 240.0 -1"),
                    "-1 0.0 0.0 0.0 128 128 128 0.0 1 0 2 0", "points3D.txt", 1,
                    f"expected '{POINTS}': id -1 marks untracked keypoints"),
}

# the seven text files: the loader and the pattern of each kind of line; an
# images.txt header's next line is its keypoint line
KEYED_FILES = {
    "cameras.txt": (load_cameras, "<camera-id> PINHOLE <w> <h> <fx> <fy> <cx> <cy>"),
    "queries.txt": (load_query_cameras, "<query-name> PINHOLE <w> <h> <fx> <fy> <cx> <cy>"),
    "conditions.txt": (load_conditions, "<image-name> day|night"),
    "classes.txt": (load_class_table, "<id> <name> <dynamic:0|1>"),
    "ground_truth.txt": (load_ground_truth, "<query-name> qw qx qy qz tx ty tz"),
    "images.txt": (load_images, IMAGE),
    "images.txt keypoints": (load_images, KEYPOINTS),
    "points3D.txt": (load_points, POINTS),
}
HEADER = "1 1 0 0 0 0 0 0 1 a"  # image 1, named a, camera 1
CAM = "640 480 500.0 500.0 320.0 240.0"
INT = "invalid literal for int() with base 10:"
KEYED_FAULTS = {  # (kind of line, data lines, message at the last line)
    "cameras.txt field count": ("cameras.txt", ["1 PINHOLE 640 480 500.0 500.0 320.0"],
                                "expected '{fields}': got 7 fields"),
    "cameras.txt value": ("cameras.txt", ["1 PINHOLE 640 480 500.0 x 320.0 240.0"],
                          "expected '{fields}': could not convert string to float: 'x'"),
    "cameras.txt key": ("cameras.txt", [f"one PINHOLE {CAM}"], f"expected '{{fields}}': {INT} 'one'"),
    "cameras.txt repeated id": ("cameras.txt", [f"1 PINHOLE {CAM}", f"01 PINHOLE {CAM}"],
                                "duplicate camera id 1"),
    "cameras.txt 8-field model": ("cameras.txt", ["1 SIMPLE_RADIAL 640 480 500 320 240 0.01"],
                                  "unsupported camera model 'SIMPLE_RADIAL'"),
    "cameras.txt 12-field model": ("cameras.txt", [f"1 OPENCV {CAM} 0.1 0.01 0 0"],
                                   "unsupported camera model 'OPENCV'"),
    "queries.txt field count": ("queries.txt", [f"q PINHOLE {CAM} 0.1"],
                                "expected '{fields}': got 9 fields"),
    "queries.txt value": ("queries.txt", ["q PINHOLE 640.5 480 500.0 500.0 320.0 240.0"],
                          f"expected '{{fields}}': {INT} '640.5'"),
    "queries.txt repeated name": ("queries.txt", [f"q PINHOLE {CAM}", f"q PINHOLE {CAM}"],
                                  "duplicate query name q"),
    "queries.txt model": ("queries.txt", [f"q OPENCV {CAM}"], "unsupported camera model 'OPENCV'"),
    "conditions.txt field count": ("conditions.txt", ["img day 1"],
                                   "expected '{fields}': got 3 fields"),
    "conditions.txt value": ("conditions.txt", ["img dusk"],
                             "expected '{fields}': 'dusk' is not day|night"),
    "conditions.txt repeated name": ("conditions.txt", ["img day", "img night"],
                                     "duplicate image name img"),
    "classes.txt field count": ("classes.txt", ["0 road"], "expected '{fields}': got 2 fields"),
    "classes.txt value": ("classes.txt", ["0 road 2"], "expected '{fields}': '2' is not 0|1"),
    "classes.txt key": ("classes.txt", ["0.0 road 0"], f"expected '{{fields}}': {INT} '0.0'"),
    "classes.txt repeated id": ("classes.txt", ["0 road 0", "1 sidewalk 0", "01 building 0"],
                                "duplicate class id 1"),
    "classes.txt gap": ("classes.txt", ["0 road 0", "2 building 0"],
                        "class ids must be contiguous from 0"),
    "ground_truth.txt field count": ("ground_truth.txt", ["q 1 0 0 0 0 0"],
                                     "expected '{fields}': got 7 fields"),
    "ground_truth.txt value": ("ground_truth.txt", ["q 1 0 0 0 0 0 zero"],
                               "expected '{fields}': could not convert string to float: 'zero'"),
    "ground_truth.txt repeated name": ("ground_truth.txt", ["q 1 0 0 0 0 0 0", "q 1 0 0 0 1 0 0"],
                                       "duplicate query name q"),
    # the empty line after a header is its keypoint line, not a skipped blank
    "images.txt field count": ("images.txt", ["1 1 0 0 0 0 0 0 1"], "expected '{fields}': got 9 fields"),
    "images.txt value": ("images.txt", ["1 1 0 0 0 zero 0 0 1 a"],
                         "expected '{fields}': could not convert string to float: 'zero'"),
    "images.txt camera id": ("images.txt", ["1 1 0 0 0 0 0 0 c a"], f"expected '{{fields}}': {INT} 'c'"),
    "images.txt repeated id": ("images.txt", [HEADER, "", "01 1 0 0 0 0 0 0 1 b"],
                               "duplicate image id 1"),
    "images.txt repeated name": ("images.txt", [HEADER, "", "2 1 0 0 0 0 0 0 1 a"],
                                 "duplicate image name a"),
    "images.txt missing keypoint line": ("images.txt", [HEADER, "", "2 1 0 0 0 0 0 0 1 b"],
                                         "missing keypoint line for image id 2"),
    "images.txt keypoints field count": ("images.txt keypoints", [HEADER, "320.0 240.0"],
                                         "expected '{fields}': got 2 fields"),
    "images.txt keypoints comment": ("images.txt keypoints", [HEADER, "# keypoints"],
                                     "expected '{fields}': got 2 fields"),
    "images.txt keypoints value": ("images.txt keypoints", [HEADER, "320.0 240.0 1 330.0 240.0 x"],
                                   "expected '{fields}': could not convert string to float: 'x'"),
    "points3D.txt field count": ("points3D.txt", ["1 0 0 0 128 128 128 0 1 0 2"],
                                 "expected '{fields}': got 11 fields"),
    "points3D.txt short line": ("points3D.txt", ["1 0 0 0 128 128 128"],
                                "expected '{fields}': got 7 fields"),
    "points3D.txt value": ("points3D.txt", ["1 0 zero 0 128 128 128 0 1 0 2 0"],
                           "expected '{fields}': could not convert string to float: 'zero'"),
    "points3D.txt track value": ("points3D.txt", ["1 0 0 0 128 128 128 0 1 0 2 0.5"],
                                 f"expected '{{fields}}': {INT} '0.5'"),
    "points3D.txt repeated id": ("points3D.txt", ["1 0 0 0 128 128 128 0 1 0 2 0",
                                                  "01 0 0 0 128 128 128 0 1 1 2 1"],
                                 "duplicate point id 1"),
}


@pytest.mark.parametrize("fault", list(KEYED_FAULTS))
def test_keyed_file_fault_message(tmp_path, fault):
    """Each text file reports a fault at its line, after a comment and a
    blank line, in the one message form of its loader."""
    kind, lines, message = KEYED_FAULTS[fault]
    loader, fields = KEYED_FILES[kind]
    path = tmp_path / kind.split()[0]
    path.write_text("".join(f"{line}\n" for line in ["# header", "", *lines]))
    with pytest.raises(ParseError) as info:
        loader(path)
    assert str(info.value) == f"{path}:{len(lines) + 2}: {message.format(fields=fields)}"


@pytest.mark.parametrize("kind", list(KEYED_FILES))
def test_readme_layout_line_is_the_loaders_pattern(tmp_path, kind):
    """The pattern a loader names for a malformed line is that file's line
    in README's "Dataset layout" block; a keypoint line's is the next one."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Dataset layout")[1].split("```")[1]
    file, *keypoints = kind.split()
    head = rf"{re.escape(file)} .*\n +" if keypoints else rf"{re.escape(file)} +"
    documented = re.search(rf"^ *{head}(.+?)(?: {{2,}}\(.*\))?$", block, re.M)
    lines = [HEADER, "x"] if keypoints else ["x"]
    path = tmp_path / file
    path.write_text("".join(f"{line}\n" for line in lines))
    with pytest.raises(ParseError) as info:
        KEYED_FILES[kind][0](path)
    assert str(info.value) == f"{path}:{len(lines)}: expected '{documented[1]}': got 1 fields"


@pytest.mark.parametrize(
    "kind, comments",
    [(kind, comments) for comments in (0, 3000) for kind in KEYED_FILES],
    ids=[*KEYED_FILES, *(f"{kind} past the first chunk" for kind in KEYED_FILES)],
)
def test_undecodable_text_names_its_file(tmp_path, kind, comments):
    """A byte that does not decode fails with the file's path, its line and
    its offset in the file, also past the first chunk that text mode
    decodes and where an images.txt keypoint line is read inside its
    header's parse."""
    file, *keypoints = kind.split()
    head = ("# padding\n" * comments + (f"{HEADER}\n" if keypoints else "")).encode()
    path = tmp_path / file
    path.write_bytes(head + b"\xff\n")
    with pytest.raises(ParseError) as info:
        KEYED_FILES[kind][0](path)
    line = comments + len(keypoints) + 1
    assert str(info.value).startswith(f"{path}:{line}: ")
    assert f"can't decode byte 0xff in position {len(head)}: " in str(info.value)


# points3D.txt lines the line loop rejects, beyond those of SINGLE_PARSE_FAULTS
POINT_FAULTS = {
    "short line": "5 0.0 0.0 0.0 128 128 128",
    "odd track": POINT.replace("1 ", "5 ", 1) + "1 0 2",
    "bad position": "5 0.0 abc 0.0 128 128 128 0.0 1 0 2 0",
    "bad track entry": POINT.replace("1 ", "5 ", 1) + "1 0 2 1.5",
    "float point id": "5.0 0.0 0.0 0.0 128 128 128 0.0 1 0 2 0",
    "repeated point id": "1_000 0.0 0.0 0.0 128 128 128 0.0 1 0 2 0",
    "one view": POINT.replace("1 ", "5 ", 1) + "1 0",
}


def points_outcome(loader, path):
    """The arrays a points loader returns, each as (dtype, shape, values),
    or the type and message of what it raises."""
    try:
        return [(a.dtype, a.shape, a.tolist()) for a in loader(path)]
    except (ParseError, ConsistencyError) as exc:
        return type(exc), str(exc)


def valid_point_lines(count, first_id=1000):
    return [f"{first_id + i} {i}.5 -{i} 1e-3 128 128 128 0.5 1 {i} 2 {i}" for i in range(count)]


class TestPointsFastPath:
    """load_points converts whole blocks of lines at once and falls back to
    the line loop on a fault; both must give the same arrays and errors."""

    @pytest.mark.parametrize("fault", [*SINGLE_PARSE_FAULTS, *POINT_FAULTS])
    def test_fault_last_after_comment_and_blank_line(self, tmp_path, fault):
        line = SINGLE_PARSE_FAULTS[fault][1] if fault in SINGLE_PARSE_FAULTS else POINT_FAULTS[fault]
        lines = ["# points", *valid_point_lines(POINT_BLOCK_LINES + 3), "", line]
        path = tmp_path / "points3D.txt"
        path.write_text("".join(f"{line}\n" for line in lines))
        outcome = points_outcome(load_points, path)
        assert outcome == points_outcome(_load_points_by_line, path)
        if fault in SINGLE_PARSE_FAULTS and SINGLE_PARSE_FAULTS[fault][2] == "points3D.txt":
            assert outcome == (ParseError, f"{path}:{len(lines)}: {SINGLE_PARSE_FAULTS[fault][4]}")
        elif fault in POINT_FAULTS:
            assert outcome[1].startswith(f"{path}:{len(lines)}: ")

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "# only a comment\n\n",
            "\n".join(valid_point_lines(2 * POINT_BLOCK_LINES + 1)) + "\n",
            # unsorted ids, tabs, CRLF, padding, no final newline, and tokens that
            # int() and float() take: underscores, signs, exponents, non-ASCII digits
            "9 1.0 2.0 3.0 1 2 3 0.0 1 1 2 1\r\n"
            "  \t# indented comment\n"
            "\t4\t+4.0 -5e0 6_0.5 x y z ? 2 0 1_0 0 +1 ٣\n"
            "\n"
            "7 -0.0 0 0 0 0 0 0 1 2 2 2 1 4",
        ],
        ids=["empty", "comments_only", "three_blocks", "odd_but_valid_tokens"],
    )
    def test_valid_file_arrays_equal_the_line_loop(self, tmp_path, monkeypatch, text):
        path = tmp_path / "points3D.txt"
        path.write_text(text)
        expected = points_outcome(_load_points_by_line, path)
        assert [dtype for dtype, _, _ in expected] == [np.int64, np.float64, np.int64]
        # a valid file never reaches the line loop
        monkeypatch.setattr("semloc.model_ingest._load_points_by_line", None)
        assert points_outcome(load_points, path) == expected

    def test_generated_model_equals_the_line_loop(self, clean_scene):
        path = clean_scene.root / "model" / "points3D.txt"
        assert points_outcome(load_points, path) == points_outcome(_load_points_by_line, path)

    @pytest.mark.parametrize("corruption", [None, {"wrong_retrieval_rate": 0.5, "outlier_match_rate": 0.5}],
                             ids=["clean", "corrupted"])
    def test_generated_bundle_never_reaches_the_line_loop(self, clean_scene, tmp_path, monkeypatch,
                                                          corruption):
        """The bundles the benchmark runs on all take the block path."""
        root = clean_scene.root
        if corruption is not None:
            root = tmp_path / "corrupted"
            corrupt(clean_scene.root, root, CorruptionSpec(**corruption), seed=99)
        path = root / "model" / "points3D.txt"
        expected = points_outcome(_load_points_by_line, path)
        monkeypatch.setattr("semloc.model_ingest._load_points_by_line", None)
        assert points_outcome(load_points, path) == expected


class TestSfmModel:
    @pytest.mark.parametrize("fault", list(SINGLE_PARSE_FAULTS))
    def test_single_parse_fault_message(self, tmp_path, fault):
        images, points, file, line, message = SINGLE_PARSE_FAULTS[fault]
        write_minimal_model(tmp_path / "model", point_line=points)
        (tmp_path / "model" / "images.txt").write_text(images)
        with pytest.raises(ParseError) as info:
            load_sfm_model(tmp_path / "model")
        assert str(info.value) == f"{tmp_path / 'model' / file}:{line}: {message}"

    @pytest.mark.parametrize("fault", list(SINGLE_FAULTS))
    def test_single_fault_message(self, tmp_path, fault):
        images, points, message = SINGLE_FAULTS[fault]
        write_minimal_model(tmp_path / "model", point_line=points)
        (tmp_path / "model" / "images.txt").write_text(images)
        with pytest.raises(ConsistencyError) as info:
            load_sfm_model(tmp_path / "model")
        assert str(info.value) == message

    def test_duplicate_track_entry_rejected(self, tmp_path):
        """Image 1 would vote twice for the point: with image 1 voting 1
        and image 2 voting 0, label 1 would win a vote that is a 1:1 tie."""
        write_minimal_model(
            tmp_path / "model", point_line="1 0 0 0 255 255 255 0 1 0 1 0 2 0"
        )
        with pytest.raises(ConsistencyError, match="track lists image 1 keypoint 0 twice"):
            load_sfm_model(tmp_path / "model")
        write_minimal_model(
            tmp_path / "model", point_line="1 0 0 0 255 255 255 0 1 0 2 0 1 0"
        )
        with pytest.raises(ConsistencyError, match="track lists image 1 keypoint 0 twice"):
            load_sfm_model(tmp_path / "model")

    def test_points_sorted_by_id_with_tracks_in_file_order(self, tmp_path):
        model_dir = tmp_path / "model"
        write_minimal_model(
            model_dir,
            point_line="9 1.0 2.0 3.0 128 128 128 0.0 2 1 1 1\n"
            "4 4.0 5.0 6.0 128 128 128 0.0 2 0 1 0",
        )
        (model_dir / "images.txt").write_text(
            images_txt(kps_a="320.0 240.0 4 330.0 240.0 9", kps_b="320.0 240.0 4 330.0 240.0 9")
        )
        model = load_sfm_model(model_dir)
        assert model.point_ids.tolist() == [4, 9]
        assert model.positions.tolist() == [[4.0, 5.0, 6.0], [1.0, 2.0, 3.0]]
        assert model.tracks.tolist() == [[0, 2, 0], [0, 1, 0], [1, 2, 1], [1, 1, 1]]

    def test_minimal_model_loads(self, tmp_path):
        write_minimal_model(tmp_path / "model")
        model = load_sfm_model(tmp_path / "model")
        assert set(model.cameras) == {1}
        assert set(model.images) == {1, 2}
        assert model.point_ids.tolist() == [1]
        assert model.positions.tolist() == [[0.0, 0.0, 0.0]]
        assert model.tracks.tolist() == [[0, 1, 0], [0, 2, 0]]
        assert model.point_ids.dtype == model.tracks.dtype == np.int64
        assert model.images[1].point3d_ids[0] == 1

    def test_dangling_image_in_track(self, tmp_path):
        write_minimal_model(
            tmp_path / "model", point_line="1 0.0 0.0 0.0 128 128 128 0.0 1 0 99 0"
        )
        with pytest.raises(ConsistencyError):
            load_sfm_model(tmp_path / "model")

    def test_asymmetric_track(self, tmp_path):
        model_dir = tmp_path / "model"
        write_minimal_model(model_dir)
        # image keypoint claims point 1 but the point's track omits image 2
        (model_dir / "points3D.txt").write_text(
            "1 0.0 0.0 0.0 128 128 128 0.0 1 0 1 0\n"
        )
        with pytest.raises(ConsistencyError):
            load_sfm_model(model_dir)

    def test_keypoint_pointing_at_missing_point(self, tmp_path):
        model_dir = tmp_path / "model"
        write_minimal_model(model_dir)
        (model_dir / "images.txt").write_text(
            "1 1.0 0.0 0.0 0.0 0.0 0.0 10.0 1 img_a\n"
            "320.0 240.0 7\n"
            "2 1.0 0.0 0.0 0.0 0.0 0.0 12.0 1 img_b\n"
            "320.0 240.0 1\n"
        )
        with pytest.raises(ConsistencyError):
            load_sfm_model(model_dir)

    def test_unsupported_camera_model(self, tmp_path):
        model_dir = tmp_path / "model"
        write_minimal_model(model_dir)
        (model_dir / "cameras.txt").write_text("1 SIMPLE_RADIAL 640 480 500.0 320.0 240.0 0.01\n")
        with pytest.raises(ParseError):
            load_sfm_model(model_dir)

    def test_parse_error_carries_line_number(self, tmp_path):
        model_dir = tmp_path / "model"
        write_minimal_model(model_dir)
        (model_dir / "cameras.txt").write_text("# comment\n1 PINHOLE 640 480 bogus\n")
        with pytest.raises(ParseError, match=":2"):
            load_sfm_model(model_dir)

    def test_image_without_keypoints_parses(self, tmp_path):
        model_dir = tmp_path / "model"
        write_minimal_model(model_dir)
        (model_dir / "images.txt").write_text(
            "1 1.0 0.0 0.0 0.0 0.0 0.0 10.0 1 img_a\n"
            "320.0 240.0 1\n"
            "2 1.0 0.0 0.0 0.0 0.0 0.0 12.0 1 img_b\n"
            "320.0 240.0 1\n"
            "3 1.0 0.0 0.0 0.0 0.0 0.0 14.0 1 img_c\n"
            "\n"
        )
        model = load_sfm_model(model_dir)
        assert len(model.images[3].keypoints) == 0

    def test_keypoints_outside_frame(self, tmp_path):
        model_dir = tmp_path / "model"
        write_minimal_model(model_dir)
        (model_dir / "images.txt").write_text(
            "1 1.0 0.0 0.0 0.0 0.0 0.0 10.0 1 img_a\n"
            "650.0 240.0 1\n"
            "2 1.0 0.0 0.0 0.0 0.0 0.0 12.0 1 img_b\n"
            "320.0 240.0 1\n"
        )
        with pytest.raises(ConsistencyError):
            load_sfm_model(model_dir)

    def test_non_finite_pose_and_point_rejected(self, tmp_path):
        model_dir = tmp_path / "model"
        write_minimal_model(model_dir, point_line="1 0.0 inf 0.0 128 128 128 0.0 1 0 2 0")
        with pytest.raises(ParseError, match="points3D.txt:1: non-finite point position"):
            load_sfm_model(model_dir)
        write_minimal_model(model_dir)
        (model_dir / "images.txt").write_text(
            "1 1.0 0.0 0.0 0.0 0.0 0.0 10.0 1 img_a\n"
            "320.0 240.0 1\n"
            "2 0.0 0.0 0.0 0.0 0.0 0.0 12.0 1 img_b\n"  # zero quaternion
            "320.0 240.0 1\n"
        )
        with pytest.raises(ParseError, match="images.txt:3: non-finite pose"):
            load_sfm_model(model_dir)

    def test_round_trip_of_synth_scene(self, clean_scene, tmp_path):
        model_dir = clean_scene.root / "model"
        model = load_sfm_model(model_dir)
        assert len(model.point_ids) == clean_scene.spec.n_points
        # re-writing the loaded model reproduces cameras and points bytewise;
        # image headers re-derive quaternions from R, stable to the last ulp
        # only numerically
        rewrite = tmp_path / "model_rewrite"
        write_model(rewrite, model)
        for name in ("cameras.txt", "points3D.txt"):
            assert (rewrite / name).read_bytes() == (model_dir / name).read_bytes()
        reloaded = load_sfm_model(rewrite)
        assert set(reloaded.images) == set(model.images)
        for image_id, image in model.images.items():
            other = reloaded.images[image_id]
            assert other.name == image.name
            assert other.camera_id == image.camera_id
            assert np.array_equal(other.keypoints, image.keypoints)
            assert np.array_equal(other.point3d_ids, image.point3d_ids)
            assert np.allclose(other.pose.rotation, image.pose.rotation, atol=1e-14)
            assert np.allclose(other.pose.translation, image.pose.translation, atol=1e-14)
        # positions and poses match the generator's ground truth
        truth = clean_scene.dataset.model
        for pid, pos in zip(truth.point_ids.tolist(), truth.positions):
            assert np.array_equal(model.positions[id_rows(model.point_ids, [pid])[0]], pos)
        for image_id, pose in ((i, image.pose) for i, image in truth.images.items()):
            assert np.allclose(model.images[image_id].pose.rotation, pose.rotation, atol=1e-14)
            assert np.allclose(
                model.images[image_id].pose.translation, pose.translation, atol=1e-14
            )


class TestLabelRaster:
    def test_uniform_raster_histogram(self, tmp_path):
        path = tmp_path / "r.pgm"
        write_pgm(path, np.full((4, 4), 2, dtype=np.uint8))
        raster = load_label_raster(path, (4, 4), TABLE)
        values, counts = np.unique(raster, return_counts=True)
        assert dict(zip(values.tolist(), counts.tolist())) == {2: 16}

    def test_dimension_mismatch(self, tmp_path):
        path = tmp_path / "r.pgm"
        write_pgm(path, np.zeros((480, 640), dtype=np.uint8))
        with pytest.raises(DimMismatch):
            load_label_raster(path, (1024, 1024), TABLE)

    def test_unknown_label(self, tmp_path):
        path = tmp_path / "r.pgm"
        raster = np.zeros((4, 4), dtype=np.uint8)
        raster[1, 1] = 200
        write_pgm(path, raster)
        with pytest.raises(UnknownLabel):
            load_label_raster(path, (4, 4), TABLE)

    def test_void_is_allowed(self, tmp_path):
        path = tmp_path / "r.pgm"
        write_pgm(path, np.full((2, 2), 255, dtype=np.uint8))
        raster = load_label_raster(path, (2, 2), TABLE)
        assert raster.tolist() == [[255, 255], [255, 255]]
        assert voted_label(raster, (0.4, 0.4)) is None  # void votes are discarded

    def test_nearest_pixel_lookup(self, tmp_path):
        path = tmp_path / "r.pgm"
        data = np.arange(4, dtype=np.uint8).reshape(2, 2) % 3
        write_pgm(path, data)
        raster = load_label_raster(path, (2, 2), TABLE)
        assert voted_label(raster, (0.6, 0.0)) == data[0, 1]
        assert voted_label(raster, (0.4, 0.0)) == data[0, 0]
        assert voted_label(raster, (0.0, 0.5)) == data[1, 0]

    def test_last_half_pixel_clamps_to_the_edge(self, tmp_path):
        path = tmp_path / "r.pgm"
        data = np.arange(4, dtype=np.uint8).reshape(2, 2) % 3
        write_pgm(path, data)
        raster = load_label_raster(path, (2, 2), TABLE)
        assert voted_label(raster, (1.7, 0.0)) == data[0, 1]
        assert voted_label(raster, (0.0, 1.99)) == data[1, 0]
        assert voted_label(raster, (1.5, 1.5)) == data[1, 1]
        # the frame ends at 2.0: such a keypoint never reaches the map build
        model_dir = tmp_path / "model"
        write_minimal_model(model_dir)
        (model_dir / "cameras.txt").write_text("1 PINHOLE 2 2 1.0 1.0 1.0 1.0\n")
        (model_dir / "images.txt").write_text(
            "1 1.0 0.0 0.0 0.0 0.0 0.0 10.0 1 img_a\n"
            "2.0 0.0 1\n"
            "2 1.0 0.0 0.0 0.0 0.0 0.0 12.0 1 img_b\n"
            "0.0 1.99 1\n"
        )
        with pytest.raises(ConsistencyError, match="image 1 has keypoints outside the frame"):
            load_sfm_model(model_dir)

    def test_header_comments_between_tokens(self, tmp_path):
        path = tmp_path / "r.pgm"
        pixels = np.arange(6, dtype=np.uint8).reshape(2, 3) % 3
        path.write_bytes(b"# made by hand\nP5 # binary\n3 # the width\n# rows:\n2\n\n255\n"
                         + pixels.tobytes())
        assert load_label_raster(path, (3, 2), TABLE).tolist() == pixels.tolist()

    @pytest.mark.parametrize(
        "raw, message",
        [
            (b"P2\n3 2\n255\n" + bytes(6), "not a binary PGM (P5) file"),
            (b"P5\n3 2 # no maxval\n", "not a binary PGM (P5) file"),
            (b"P5\n3 x2\n255\n" + bytes(6), f"bad PGM header: {INT} b'x2'"),
            (b"P5\n3 2\n#255\n15\n" + bytes(6), "PGM maxval must be 255, got 15"),
            (b"P5\n3 2\n255\n" + bytes(106), "100 trailing bytes"),
            (b"P5\n3 2\n255\n" + bytes(6) + b"\n", "1 trailing bytes"),
        ],
        ids=["ascii", "three_tokens", "bad_height", "maxval", "trailing_bytes", "trailing_newline"],
    )
    def test_header_fault_message(self, tmp_path, raw, message):
        path = tmp_path / "r.pgm"
        path.write_bytes(raw)
        with pytest.raises(ParseError) as info:
            load_label_raster(path, (3, 2), TABLE)
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize(
        "strays, named",
        [({(0, 0): 7}, 7), ({(3, 4): 9}, 9), ({(1, 2): 3, (2, 0): 200}, 3), ({(1, 2): 200, (2, 0): 3}, 200)],
        ids=["first_pixel", "last_pixel", "two_strays_small_first", "two_strays_large_first"],
    )
    def test_first_stray_label_in_row_major_order(self, tmp_path, strays, named):
        path = tmp_path / "r.pgm"
        raster = np.array([0, 1, 2, 255, 255] * 4, dtype=np.uint8).reshape(4, 5)
        for pixel, label in strays.items():
            raster[pixel] = label
        write_pgm(path, raster)
        with pytest.raises(UnknownLabel) as info:
            load_label_raster(path, (5, 4), TABLE)
        assert str(info.value) == f"{path}: label id {named} outside the class table"

    @pytest.mark.parametrize(
        "n_classes, void_id",
        [(4, 1), (4, 4), (4, 100), (4, 255), (200, 255), (200, 150)],
        ids=["void_below_count", "void_at_count", "void_apart", "void_255", "200_classes", "200_void_150"],
    )
    def test_labels_checked_against_any_class_table(self, tmp_path, n_classes, void_id):
        """Every raster of every label pair is accepted exactly when each
        label is a class id or the void id, and else names the first stray."""
        table = ClassTable(tuple(f"c{i}" for i in range(n_classes)), frozenset(), void_id)
        path = tmp_path / "r.pgm"
        for first, second in [(a, b) for a in range(256) for b in (0, n_classes - 1, void_id, 255)]:
            raster = np.array([[second, first], [second, second]], dtype=np.uint8)
            write_pgm(path, raster)
            strays = [v for v in raster.ravel().tolist() if v >= n_classes and v != void_id]
            if strays:
                with pytest.raises(UnknownLabel, match=f"label id {strays[0]} outside"):
                    load_label_raster(path, (2, 2), table)
            else:
                assert load_label_raster(path, (2, 2), table).tolist() == raster.tolist()

    def test_truncated_pgm(self, tmp_path):
        path = tmp_path / "r.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + b"\x00" * 10)
        with pytest.raises(TruncatedFile):
            load_label_raster(path, (4, 4), TABLE)


class TestBinarySidecars:
    def test_descriptor_round_trip(self, tmp_path):
        path = tmp_path / "d.ldsc"
        data = np.arange(12, dtype=np.float32).reshape(3, 4)
        write_sidecar(path, b"LDSC", 2, data)
        loaded = load_descriptors(path)
        assert loaded.rows == 3 and loaded.dim == 4
        assert np.array_equal(loaded.data, data)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "d.ldsc"
        path.write_bytes(b"XXXX" + struct.pack("<II", 1, 1) + b"\x00" * 4)
        with pytest.raises(BadMagic):
            load_descriptors(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "d.ldsc"
        path.write_bytes(b"LDSC" + struct.pack("<II", 3, 4) + b"\x00" * 44)  # 11 floats, not 12
        with pytest.raises(TruncatedFile):
            load_descriptors(path)

    def test_keypoints_round_trip(self, tmp_path):
        path = tmp_path / "k.kpts"
        kps = np.array([[1.5, 2.5], [3.0, 4.0]], dtype=np.float32)
        write_sidecar(path, b"KPTS", 1, kps)
        assert np.array_equal(load_keypoints(path), kps.astype(np.float64))

    def test_global_descriptor_renormalized(self, tmp_path):
        path = tmp_path / "g.gdsc"
        values = np.zeros(8, dtype=np.float32)
        values[0], values[1] = 3.0, 4.0
        write_sidecar(path, b"GDSC", 1, values)
        loaded = load_global_descriptor(path)
        assert loaded.dtype == np.float32 and loaded.shape == (8,)
        assert np.allclose(loaded[:2], [0.6, 0.8], atol=1e-7)
        assert np.allclose(np.linalg.norm(loaded), 1.0, atol=1e-6)

    def test_global_descriptor_truncated(self, tmp_path):
        path = tmp_path / "g.gdsc"
        path.write_bytes(b"GDSC" + struct.pack("<I", 4) + b"\x00" * 12)
        with pytest.raises(TruncatedFile):
            load_global_descriptor(path)

    def test_non_finite_values_rejected(self, tmp_path):
        descs = np.ones((3, 4), dtype=np.float32)
        descs[2, 1] = np.nan
        write_sidecar(tmp_path / "d.ldsc", b"LDSC", 2, descs)
        write_sidecar(tmp_path / "k.kpts", b"KPTS", 1, np.array([[1.0, np.inf]], dtype=np.float32))
        write_sidecar(tmp_path / "g.gdsc", b"GDSC", 1, np.array([1.0, np.nan], dtype=np.float32))
        for path, loader in (("d.ldsc", load_descriptors), ("k.kpts", load_keypoints),
                             ("g.gdsc", load_global_descriptor)):
            with pytest.raises(ParseError, match=f"{path}: non-finite value"):
                loader(tmp_path / path)


class TestClassTable:
    def test_loads_cityscapes_table(self, clean_scene):
        table = load_class_table(clean_scene.root / "classes.txt")
        assert len(table.names) == 19
        assert table.names[13] == "car"
        assert table.is_dynamic(11) and table.is_dynamic(13)
        assert not table.is_dynamic(2)
        assert table.void_id == 255
        assert table.void_id not in table.dynamic_ids

    def test_non_contiguous_ids_rejected(self, tmp_path):
        path = tmp_path / "classes.txt"
        path.write_text("0 road 0\n2 building 0\n")
        with pytest.raises(ParseError):
            load_class_table(path)


class TestValidateDataset:
    def test_complete_bundle_is_ok(self, clean_scene):
        report = validate_dataset(clean_scene.root)
        assert report.ok
        assert report.findings == []

    def test_missing_raster_named(self, clean_scene, tmp_path):
        import shutil

        root = tmp_path / "ds"
        shutil.copytree(clean_scene.root, root)
        victim = root / "db" / "db_003.labels.pgm"
        victim.unlink()
        report = validate_dataset(root)
        assert not report.ok
        assert any("db_003" in f and "raster" in f for f in report.findings)

    def test_descriptor_dim_mismatch_flagged_per_image(self, clean_scene, tmp_path):
        import shutil

        root = tmp_path / "ds"
        shutil.copytree(clean_scene.root, root)
        for name in ("db_001", "db_004"):
            from semloc.model_ingest import load_sfm_model

            model = load_sfm_model(root / "model")
            record = next(im for im in model.images.values() if im.name == name)
            bad = np.zeros((len(record.keypoints), 7), dtype=np.float32)
            write_sidecar(root / "db" / f"{name}.ldsc", b"LDSC", 2, bad)
        report = validate_dataset(root)
        assert not report.ok
        flagged = {f.split(":")[0] for f in report.findings if "dim" in f}
        assert flagged == {"db_001", "db_004"}

    def test_report_carries_the_loaded_dataset(self, clean_scene, clean_dataset):
        dataset = validate_dataset(clean_scene.root).dataset
        assert dataset is not None
        assert [q.name for q in dataset.queries] == [q.name for q in clean_dataset.queries]
        assert list(dataset.db_rasters) == list(clean_dataset.db_rasters)
        for image_id, descs in dataset.db_descriptors.items():
            assert np.array_equal(descs.data, clean_dataset.db_descriptors[image_id].data)
        for query, other in zip(dataset.queries, clean_dataset.queries):
            assert np.array_equal(query.keypoints, other.keypoints)
            assert query.condition == other.condition

    def test_load_dataset_lists_every_finding(self, clean_scene, tmp_path):
        import shutil

        root = tmp_path / "ds"
        shutil.copytree(clean_scene.root, root)
        (root / "db" / "db_003.labels.pgm").unlink()
        (root / "db" / "db_005.gdsc").unlink()
        report = validate_dataset(root)
        assert report.dataset is None
        assert report.findings == ["db_003: missing label raster", "db_005: missing global descriptor"]
        with pytest.raises(InvalidDataset) as info:
            load_dataset(root)
        assert all(finding in str(info.value) for finding in report.findings)
