"""The production-cell plant: devices, sensors and actuators.

The cell (Figure 5 of the paper) consists of six devices: a feed belt, an
elevating rotary table, a two-armed rotary robot, a press, a deposit belt,
and two traffic lights guarding insertion and deposit.  The task of the cell
is to take a metal blank from the environment via the feed belt, forge it in
the press, and return it via the deposit belt.

The devices below are the *physical* plant: they hold positional state and
expose actuator operations the control program calls, plus sensors the
control program reads.  Faults are injected through the
:class:`~repro.productioncell.failures.FailureInjector`; an injected fault
makes the corresponding operation report failure (return ``False`` or leave
the sensor stuck), and the control program is responsible for detecting it
and raising the appropriate CA-action exception — exactly the division of
labour between plant and controller in the original case study.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional

from .failures import FailureInjector


class Blank:
    """A metal blank travelling through the cell."""

    _counter = 0

    def __init__(self) -> None:
        Blank._counter += 1
        self.blank_id = Blank._counter
        self.forged = False
        self.location = "environment"

    def __repr__(self) -> str:
        state = "forged" if self.forged else "blank"
        return f"<Blank #{self.blank_id} {state} at {self.location}>"


class TrafficLight:
    """Traffic light guarding insertion to the feed belt or final deposit."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.green = True

    def set_green(self, green: bool) -> None:
        self.green = green

    def __repr__(self) -> str:
        return f"<TrafficLight {self.name} {'green' if self.green else 'red'}>"


class Device:
    """Common base for plant devices: name, injector, operation log."""

    def __init__(self, name: str, injector: FailureInjector) -> None:
        self.name = name
        self.injector = injector
        self.operations: List[str] = []

    def _log(self, operation: str) -> None:
        self.operations.append(operation)

    def _fails(self, fault: str) -> bool:
        return self.injector.should_fail(fault, self.name)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


class FeedBelt(Device):
    """Conveys blanks from the environment to the rotary table."""

    def __init__(self, injector: FailureInjector) -> None:
        super().__init__("feed_belt", injector)
        self.blanks: List[Blank] = []
        self.light = TrafficLight("insertion")

    def insert_blank(self, blank: Blank) -> bool:
        """Environment adds a blank if the insertion light is green."""
        self._log("insert_blank")
        if not self.light.green:
            return False
        blank.location = "feed_belt"
        self.blanks.append(blank)
        return True

    def convey_to_table(self) -> Optional[Blank]:
        """Move the oldest blank to the end of the belt (table side)."""
        self._log("convey_to_table")
        if self._fails("l_plate") or not self.blanks:
            return None
        blank = self.blanks.pop(0)
        blank.location = "table"
        return blank

    @property
    def occupied(self) -> bool:
        return bool(self.blanks)


class RotaryTable(Device):
    """Elevating rotary table with a vertical and a rotation motor."""

    LOW, HIGH = 0, 1
    FEED_ANGLE, ROBOT_ANGLE = 0, 50

    def __init__(self, injector: FailureInjector) -> None:
        super().__init__("table", injector)
        self.height = self.LOW
        self.angle = self.FEED_ANGLE
        self.blank: Optional[Blank] = None
        self.vertical_sensor_ok = True
        self.rotation_sensor_ok = True

    def load(self, blank: Blank) -> None:
        """A blank arrives from the feed belt."""
        self._log("load")
        self.blank = blank
        blank.location = "table"

    def move_up(self) -> bool:
        """Raise the table to the robot's level (vertical motor)."""
        self._log("move_up")
        if self._fails("vm_stop") or self._fails("vm_nmove"):
            return False
        self.height = self.HIGH
        return True

    def rotate_to_robot(self) -> bool:
        """Rotate the table to the robot pick-up angle (rotation motor)."""
        self._log("rotate_to_robot")
        if self._fails("rm_stop") or self._fails("rm_nmove"):
            return False
        self.angle = self.ROBOT_ANGLE
        return True

    def move_down(self) -> bool:
        """Lower the table back to the feed-belt level."""
        self._log("move_down")
        if self._fails("vm_stop"):
            return False
        self.height = self.LOW
        return True

    def rotate_to_feed(self) -> bool:
        """Rotate the table back to the feed-belt angle."""
        self._log("rotate_to_feed")
        if self._fails("rm_stop"):
            return False
        self.angle = self.FEED_ANGLE
        return True

    def unload(self) -> Optional[Blank]:
        """The robot magnetises and removes the blank."""
        self._log("unload")
        if self._fails("l_plate"):
            self.blank = None
            return None
        blank, self.blank = self.blank, None
        return blank

    def read_position_sensors(self) -> Dict[str, Optional[int]]:
        """Sensor readings; a stuck sensor reads 0 regardless of reality."""
        self._log("read_sensors")
        if self._fails("s_stuck"):
            self.vertical_sensor_ok = False
        vertical = self.height if self.vertical_sensor_ok else 0
        rotation = self.angle if self.rotation_sensor_ok else 0
        return {"height": vertical, "angle": rotation}

    @property
    def at_robot_position(self) -> bool:
        return self.height == self.HIGH and self.angle == self.ROBOT_ANGLE


class Robot(Device):
    """Rotary robot with two orthogonal extendible arms with electromagnets."""

    def __init__(self, injector: FailureInjector) -> None:
        super().__init__("robot", injector)
        self.angle = 0
        self.arm1_extended = False
        self.arm2_extended = False
        self.arm1_load: Optional[Blank] = None
        self.arm2_load: Optional[Blank] = None
        self.arm1_sensor_ok = True

    def extend_arm1(self) -> bool:
        self._log("extend_arm1")
        if self._fails("rm_nmove"):
            return False
        self.arm1_extended = True
        return True

    def grab_from_table(self, table: RotaryTable) -> bool:
        """Arm 1 magnetises the blank on the table."""
        self._log("grab_from_table")
        if self._fails("s_stuck"):
            self.arm1_sensor_ok = False
        blank = table.unload()
        if blank is None:
            return False
        blank.location = "robot_arm1"
        self.arm1_load = blank
        return True

    def retract_arm1(self) -> bool:
        self._log("retract_arm1")
        self.arm1_extended = False
        return True

    def rotate_to_press(self) -> bool:
        self._log("rotate_to_press")
        if self._fails("rm_stop"):
            return False
        self.angle = 90
        return True

    def place_in_press(self, press: "Press") -> bool:
        """Arm 1 drops the blank into the press."""
        self._log("place_in_press")
        if self.arm1_load is None or self._fails("l_plate"):
            self.arm1_load = None
            return False
        press.load(self.arm1_load)
        self.arm1_load = None
        return True

    def extend_arm2(self) -> bool:
        self._log("extend_arm2")
        self.arm2_extended = True
        return True

    def grab_from_press(self, press: "Press") -> bool:
        """Arm 2 picks the forged plate out of the press."""
        self._log("grab_from_press")
        plate = press.unload()
        if plate is None:
            return False
        plate.location = "robot_arm2"
        self.arm2_load = plate
        return True

    def retract_arm2(self) -> bool:
        self._log("retract_arm2")
        self.arm2_extended = False
        return True

    def place_on_deposit(self, belt: "DepositBelt") -> bool:
        """Arm 2 puts the forged plate on the deposit belt."""
        self._log("place_on_deposit")
        if self.arm2_load is None or self._fails("l_plate"):
            self.arm2_load = None
            return False
        belt.load(self.arm2_load)
        self.arm2_load = None
        return True


class Press(Device):
    """The forging press."""

    def __init__(self, injector: FailureInjector) -> None:
        super().__init__("press", injector)
        self.plate: Optional[Blank] = None
        self.closed = False

    def load(self, blank: Blank) -> None:
        self._log("load")
        blank.location = "press"
        self.plate = blank

    def forge(self) -> bool:
        """Close the press and forge the plate."""
        self._log("forge")
        if self.plate is None:
            return False
        if self._fails("vm_stop"):
            return False
        self.closed = True
        self.plate.forged = True
        self.closed = False
        return True

    def unload(self) -> Optional[Blank]:
        self._log("unload")
        plate, self.plate = self.plate, None
        return plate

    @property
    def occupied(self) -> bool:
        return self.plate is not None


class DepositBelt(Device):
    """Conveys forged plates back to the environment."""

    def __init__(self, injector: FailureInjector) -> None:
        super().__init__("deposit_belt", injector)
        self.plates: List[Blank] = []
        self.delivered: List[Blank] = []
        self.light = TrafficLight("deposit")

    def load(self, plate: Blank) -> None:
        self._log("load")
        plate.location = "deposit_belt"
        self.plates.append(plate)

    def convey_to_environment(self) -> Optional[Blank]:
        """Forward a plate to the container if the deposit light is green."""
        self._log("convey_to_environment")
        if not self.light.green or not self.plates:
            return None
        plate = self.plates.pop(0)
        plate.location = "environment"
        self.delivered.append(plate)
        return plate


@dataclass
class Plant:
    """The assembled production cell."""

    injector: FailureInjector
    feed_belt: FeedBelt = None
    table: RotaryTable = None
    robot: Robot = None
    press: Press = None
    deposit_belt: DepositBelt = None

    def __post_init__(self) -> None:
        self.feed_belt = self.feed_belt or FeedBelt(self.injector)
        self.table = self.table or RotaryTable(self.injector)
        self.robot = self.robot or Robot(self.injector)
        self.press = self.press or Press(self.injector)
        self.deposit_belt = self.deposit_belt or DepositBelt(self.injector)

    @property
    def forged_count(self) -> int:
        """Number of forged plates delivered back to the environment."""
        return sum(1 for plate in self.deposit_belt.delivered if plate.forged)

    def devices(self) -> List[Device]:
        return [self.feed_belt, self.table, self.robot, self.press,
                self.deposit_belt]
